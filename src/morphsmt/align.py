"""Token-level alignment: IBM Model 1 EM training, Viterbi links, symmetrization.

Works on opaque token strings at either granularity, over a plain list of
(source, target) sentence pairs (``sentence_pairs``), with ``train_both`` for
Model 1 in both directions.  The NULL source token is the ``None`` key in the
lexical table; a target whose best source is NULL gets no link at all.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from .morpho import parse_file, parse_keyed_file, write_lines

Granularity = Literal["word", "morpheme"]

# t(target | source) by (source, target), with source None as the NULL token
LexicalTable = dict[tuple[Optional[str], str], float]
SentencePairs = list[tuple[tuple[str, ...], tuple[str, ...]]]

# fallback translation probability for pairs absent from a trained table;
# keeps Viterbi total and lexical weighting finite on held-out data
FLOOR_PROB = 1e-9


def sentence_pairs(source: Iterable[Sequence[str]],
                   target: Iterable[Sequence[str]]) -> SentencePairs:
    """The (source, target) pairs of two parallel sentence lists that have no empty side."""
    return [(tuple(src), tuple(tgt))
            for src, tgt in zip(source, target, strict=True) if src and tgt]


@dataclass(frozen=True)
class AlignmentMatrix:
    links: frozenset[tuple[int, int]]
    source_len: int
    target_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.source_len and 0 <= j < self.target_len):
                raise ValueError(f"link ({i},{j}) out of bounds "
                                 f"{self.source_len}x{self.target_len}")


def train_model1(pairs: SentencePairs, iterations: int = 5) -> LexicalTable:
    """EM-train IBM Model 1 translation probabilities with a NULL source,
    starting from uniform over each source token's observed targets."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not pairs:
        raise ValueError("cannot train on an empty corpus")

    # Each co-occurring (e, f) pair gets a slot, numbered in first-seen order
    # through per-target columns slot_cols[f][e]; source tokens get ids.  EM
    # then runs over flat lists, with no dict operation inside its loops, and
    # adds every count and total in the same order as the textbook loop.
    keys: list[tuple[Optional[str], str]] = []
    slot_cols: dict[str, dict[Optional[str], int]] = {}
    src_ids: dict[Optional[str], int] = {}
    events = []  # per target token: (slot per source token, source ids)
    for src, tgt in pairs:
        sources = (None, *src)
        ids = tuple(src_ids.setdefault(e, len(src_ids)) for e in sources)
        for f in tgt:
            col = slot_cols.setdefault(f, {})
            slots = []
            for e in sources:
                slot = col.get(e)
                if slot is None:
                    slot = col[e] = len(keys)
                    keys.append((e, f))
                slots.append(slot)
            events.append((slots, ids))

    n_targets: dict[Optional[str], int] = defaultdict(int)
    for e, _ in keys:
        n_targets[e] += 1
    t = [1.0 / n_targets[e] for e, _ in keys]

    owner = [src_ids[e] for e, _ in keys]
    for _ in range(iterations):
        counts = [0.0] * len(keys)
        totals = [0.0] * len(src_ids)
        for slots, ids in events:
            probs = [t[slot] for slot in slots]
            denom = math.fsum(probs)
            for slot, i, p in zip(slots, ids, probs):
                c = p / denom
                counts[slot] += c
                totals[i] += c
        t = [c / totals[i] for c, i in zip(counts, owner)]

    return dict(zip(keys, t))


def train_both(pairs: SentencePairs, iterations: int = 5) -> tuple[LexicalTable, LexicalTable]:
    """Model 1 in both directions: the forward table t(tgt|src) and the
    backward table t(src|tgt), trained on the reversed pairs."""
    return (train_model1(pairs, iterations),
            train_model1([(tgt, src) for src, tgt in pairs], iterations))


def viterbi_align(
    source: Sequence[str], target: Sequence[str], table: LexicalTable
) -> AlignmentMatrix:
    """Link each target token to its argmax source token.

    Ties between source tokens go to the smallest index.  A target stays
    unlinked when no source beats the unknown-pair floor (fully unseen
    token) or when NULL is strictly more probable than every source.
    """
    links = set()
    prob = table.get
    for j, f in enumerate(target):
        best_i, best_p = 0, -1.0
        for i, e in enumerate(source):
            p = prob((e, f), FLOOR_PROB)
            if p > best_p:
                best_i, best_p = i, p
        if best_p > FLOOR_PROB and prob((None, f), FLOOR_PROB) <= best_p:
            links.add((best_i, j))
    return AlignmentMatrix(frozenset(links), len(source), len(target))


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))

Heuristic = Literal["intersection", "union", "grow-diag-final-and"]


def symmetrize(
    fwd: AlignmentMatrix, rev: AlignmentMatrix, heuristic: Heuristic
) -> AlignmentMatrix:
    """Combine source->target and target->source Viterbi alignments.

    ``rev`` is the raw reverse-direction matrix (its frame is target x source);
    it is transposed here.  grow-diag-final-and scans row-major, grows from
    the intersection through the 8-neighborhood within the union, then runs
    the final-and pass over each directed alignment.
    """
    if (fwd.source_len, fwd.target_len) != (rev.target_len, rev.source_len):
        raise ValueError("alignment dimension mismatch")
    rev_links = frozenset((j, i) for i, j in rev.links)
    inter = fwd.links & rev_links
    union = fwd.links | rev_links

    if heuristic == "intersection":
        links = inter
    elif heuristic == "union":
        links = union
    elif heuristic == "grow-diag-final-and":
        links = set(inter)
        aligned_src = {i for i, _ in links}
        aligned_tgt = {j for _, j in links}

        def grow(candidates: Iterable[tuple[int, int]], require_both: bool) -> bool:
            added = False
            for i, j in candidates:
                has_src, has_tgt = i in aligned_src, j in aligned_tgt
                free = (not has_src and not has_tgt) if require_both \
                    else (not has_src or not has_tgt)
                if free:
                    links.add((i, j))
                    aligned_src.add(i)
                    aligned_tgt.add(j)
                    added = True
            return added

        changed = True
        while changed:
            changed = False
            for i in range(fwd.source_len):
                for j in range(fwd.target_len):
                    if (i, j) not in links:
                        continue
                    cands = [(i + di, j + dj) for di, dj in _NEIGHBORS]
                    if grow((c for c in cands if c in union and c not in links),
                            require_both=False):
                        changed = True
        # final-and: only points whose source AND target are both uncovered
        grow(sorted(fwd.links - links), require_both=True)
        grow(sorted(rev_links - links), require_both=True)
        links = frozenset(links)
    else:
        raise ValueError(f"unknown heuristic: {heuristic}")

    return AlignmentMatrix(frozenset(links), fwd.source_len, fwd.target_len)


def align_corpus(
    pairs: SentencePairs,
    iterations: int = 5,
    heuristic: Heuristic = "grow-diag-final-and",
) -> tuple[list[AlignmentMatrix], LexicalTable, LexicalTable]:
    """Train both directions, Viterbi-align every pair, symmetrize.

    Returns (alignments, forward lexical table t(tgt|src), backward t(src|tgt)).
    """
    fwd_table, bwd_table = train_both(pairs, iterations)
    alignments = []
    for src, tgt in pairs:
        fwd = viterbi_align(src, tgt, fwd_table)
        rev = viterbi_align(tgt, src, bwd_table)
        alignments.append(symmetrize(fwd, rev, heuristic))
    return alignments, fwd_table, bwd_table


# --- lexical table format: src<TAB>tgt<TAB>prob, NULL source = empty field ---


def write_lexical_table(path, table: LexicalTable) -> None:
    write_lines(path, (f"{src or ''}\t{tgt}\t{p!r}" for (src, tgt), p
                       in sorted(table.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))))


def read_lexical_table(path) -> LexicalTable:
    """A table file; a line that repeats an earlier line's source and target
    is rejected, so no line's probability silently replaces another's."""
    return parse_keyed_file(
        path, _parse_lexical_line, lambda key: f"lexical pair {key[0] or ''!r} -> {key[1]!r}")


def _parse_lexical_line(line: str):
    """``((src or None, tgt), prob)`` of one table line; None if blank.  An
    empty source is NULL; an empty target is refused."""
    if not line.strip():
        return None
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected src<TAB>tgt<TAB>prob: {line.rstrip()!r}")
    src, tgt, p = fields
    if not tgt:
        raise ValueError(f"empty target: {line.rstrip()!r}")
    prob = float(p)
    if not math.isfinite(prob):
        raise ValueError(f"probability must be finite: {line.rstrip()!r}")
    return (src or None, tgt), prob


# --- Pharaoh alignment file format: one line per pair, space-separated i-j ---


def format_links(links: Iterable[tuple[int, int]]) -> str:
    """Pharaoh text of a link set: sorted ``i-j`` pairs joined by spaces."""
    return " ".join(f"{i}-{j}" for i, j in sorted(links))


def parse_links(line: str) -> frozenset[tuple[int, int]]:
    links = set()
    for piece in line.split():
        i, sep, j = piece.partition("-")
        if not (sep and i.isdecimal() and j.isdecimal()):
            raise ValueError(f"bad link {piece!r}: expected i-j")
        links.add((int(i), int(j)))
    return frozenset(links)


def write_alignments(path, alignments: Iterable[AlignmentMatrix]) -> None:
    write_lines(path, (format_links(a.links) for a in alignments))


def read_alignments(path, dimensions: Sequence[tuple[int, int]]) -> list[AlignmentMatrix]:
    """Read Pharaoh lines; dimensions supply (source_len, target_len) per line."""
    lines = parse_file(path, parse_links)
    if len(lines) != len(dimensions):
        raise ValueError(f"{path}: {len(lines)} alignment lines for "
                         f"{len(dimensions)} sentence pairs")
    out = []
    for lineno, (links, (slen, tlen)) in enumerate(zip(lines, dimensions), 1):
        try:
            out.append(AlignmentMatrix(links, slen, tlen))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out
