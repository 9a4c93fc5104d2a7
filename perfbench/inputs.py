"""Seeded workload inputs, generated by the benchmark's own numpy code.

The program under test only ever sees the files written here: a TSV edge
list per graph and the query labels passed on its command line. Nothing in
this module imports bipush, so a change to the program's own generator
(`synth_bipartite`, `bipush synth`) cannot change a workload.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

U_COUNT = 20000
V_COUNT = 20000
EDGE_COUNT = 400000
WEIGHT_MAX = 10.0
SKEW = 1.2


def make_edges(seed: int, skew: float | None):
    """Distinct (u, v, w) edges covering every node on both sides.

    One edge per U node to a random permutation of V guarantees degree >= 1
    on both sides (|U| == |V|). The remaining edges are distinct random
    pairs, uniform or, with `skew`, with endpoint probability proportional
    to (index + 1) ** -skew on each side. Weights are uniform in (0, 10].
    Returns arrays sorted by (u, v).
    """
    rng = np.random.default_rng([seed, 0 if skew is None else 1])
    base = np.arange(U_COUNT, dtype=np.int64) * V_COUNT + rng.permutation(V_COUNT)
    if skew is not None:
        cu = np.cumsum((np.arange(U_COUNT) + 1.0) ** -skew)
        cv = np.cumsum((np.arange(V_COUNT) + 1.0) ** -skew)
    draw = 5 * EDGE_COUNT if skew is not None else 2 * EDGE_COUNT
    while True:
        if skew is None:
            a = rng.integers(0, U_COUNT, draw)
            b = rng.integers(0, V_COUNT, draw)
        else:
            a = np.minimum(np.searchsorted(cu, rng.random(draw) * cu[-1], side="right"), U_COUNT - 1)
            b = np.minimum(np.searchsorted(cv, rng.random(draw) * cv[-1], side="right"), V_COUNT - 1)
        cand = np.concatenate([base, a.astype(np.int64) * V_COUNT + b])
        _, first = np.unique(cand, return_index=True)
        if first.size >= EDGE_COUNT:
            # Keep the first EDGE_COUNT distinct pairs in draw order, so the
            # permutation edges always survive.
            keys = np.sort(cand[np.sort(first)[:EDGE_COUNT]])
            break
        draw *= 2
    w = WEIGHT_MAX - rng.random(EDGE_COUNT) * WEIGHT_MAX
    return keys // V_COUNT, keys % V_COUNT, w


def write_tsv(path: Path, eu, ev, ew) -> None:
    """One `u<i>\\tv<j>\\t<weight>` line per edge; weights in repr form, so
    the parsed value is bit-identical to the generated one."""
    lines = [f"u{a}\tv{b}\t{c!r}\n" for a, b, c in zip(eu.tolist(), ev.tolist(), ew.tolist())]
    path.write_text("".join(lines), encoding="utf-8")


def file_record(path: Path) -> dict:
    data = path.read_bytes()
    return {"file": path.name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def query_pool(seed: int, count: int) -> list[int]:
    """Distinct U indices for the closed loop, drawn from the seed."""
    rng = np.random.default_rng([seed, 2])
    return sorted(rng.choice(U_COUNT, size=count, replace=False).tolist())
