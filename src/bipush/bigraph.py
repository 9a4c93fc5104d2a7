"""Weighted bipartite graph with an implicit co-neighbor transition structure.

A graph holds two disjoint node sets U and V joined by positively weighted
edges. Random walks used elsewhere in this package alternate sides: a step
from a U-node picks an incident edge with probability proportional to its
weight, lands on a V-node, and immediately hops back to U the same way. The
resulting one-side transition matrix over U (each entry a sum over shared
neighbors) is never materialized.

Each side is held once, as a raw-weight CSR matrix: `u_adj` (|U|x|V|) and
`v_adj` (|V|x|U|), both with entry w(u, v). They are `csr.CsrView`s, not
scipy matrices: thin read-only views whose `@` calls scipy's compiled CSR
mat-vec, so no kernel imports `scipy.sparse`. Whatever walks a side's rows
reads that view's `indptr`, `indices` and `data`. No normalized copy of
the weights is stored; the kernels divide by the receivers' weight sums
when they push. `v_adj @ (x / ws_u)` carries a distribution x on U one hop
to V and `u_adj @ (y / ws_v)` carries y on V back to U.

Node labels stay UTF-8 bytes in one blob per graph, U labels then V labels,
as the cache stores them. Each side reads it through a `LabelTable`, which
decodes a label only when it is read and finds one by binary search.

A graph is built one way: the constructor packs its edges and labels into
the version-2 cache buffer `graph.bin` holds, and both it and `from_bytes`
end in `_load`, which checks that buffer and views its arrays in place.
`save`, `to_bytes` and `fingerprint` use the buffer as it is.

Graphs are immutable after construction: every array is built eagerly and
marked read-only. Only the fingerprint is computed on first use.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import itertools
import math
import operator
import struct
from collections.abc import Sequence
from functools import cached_property
from pathlib import Path

import numpy as np

from .csr import CsrView, frozen as _frozen, row_slots

CACHE_MAGIC = b"BPGR"
CACHE_VERSION = 2
_HEADER = struct.Struct("<4sIQQQ")
# Edges a graph's checks and weight sums visit at a time, so that their
# temporaries stay this size however many edges the graph has.
_BLOCK = 1 << 14
# Bytes of label text the label checks copy or decode at a time.
_CHUNK = 1 << 20


class DataError(ValueError):
    """Malformed input data: bad edge lists, bad cache files, bad labels."""


class LabelTable(Sequence):
    """One side's node labels in index order: a read-only sequence of str.

    Label i is the UTF-8 text `blob[offsets[i]:offsets[i+1]]`, decoded each
    time it is read. The blob and offsets are views into the graph's cache
    buffer. `order` lists the labels sorted by (byte length,
    bytes), so `index` finds a label by binary search in O(log n) and
    allocates nothing of size n. A table equals another table or a list
    with the same labels.
    """

    __slots__ = ("blob", "offsets", "order")

    def __init__(self, blob, offsets, order):
        self.blob = blob
        self.offsets = offsets
        self.order = order

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i):
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("label index out of range")
        a, b = self.offsets[i:i + 2].tolist()
        return str(self.blob[a:b], "utf-8")

    def __iter__(self):
        for a in range(0, len(self), _BLOCK):
            bounds = self.offsets[a:a + _BLOCK + 1].tolist()
            for lo, hi in itertools.pairwise(bounds):
                yield str(self.blob[lo:hi], "utf-8")

    def __contains__(self, label) -> bool:
        return self._find(label) >= 0

    def __eq__(self, other):
        if not isinstance(other, (LabelTable, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def index(self, label) -> int:
        """Index of `label`; ValueError if this side has no such label."""
        i = self._find(label)
        if i < 0:
            raise ValueError(f"{label!r} is not a label on this side")
        return i

    def _find(self, label) -> int:
        """Index of `label`, or -1: a binary search of `order` that compares
        byte lengths first and bytes only between labels of one length."""
        if not isinstance(label, str):
            return -1
        try:
            key = label.encode("utf-8")
        except UnicodeEncodeError:
            return -1
        order, offsets, blob = self.order, self.offsets, self.blob
        lo, hi = 0, order.size
        while lo < hi:
            mid = (lo + hi) // 2
            i = order.item(mid)
            a, b = offsets[i:i + 2].tolist()
            if b - a == len(key):
                probe = bytes(blob[a:b])
                if probe == key:
                    return i
                below = probe < key
            else:
                below = b - a < len(key)
            if below:
                lo = mid + 1
            else:
                hi = mid
        return -1


class BipartiteGraph:
    """Immutable weighted bipartite graph in CSR form for both sides.

    Attributes:
        u_count, v_count, edge_count: basic sizes.
        u_labels, v_labels: each side's node labels in index order, as a
            `LabelTable`. Both tables read one UTF-8 blob, U labels then V
            labels, a view into the cache buffer. `u_id` and `v_id` find a
            label's index.
        u_adj, v_adj: each side's raw-weight CSR as a `CsrView` (|U|x|V|
            and |V|x|U|; a row's neighbors are sorted by index). `u_adj`'s
            indices and weights are views into the cache buffer; `v_adj` is
            its transpose, built eagerly.
        v_indices, v_weights: `v_adj.indices` and `v_adj.data`, the same
            objects.
        ws_u, ws_v: per-node incident weight sums (always positive).
        deg_u, deg_v: per-node neighbor counts (always at least 1), in the
            views' index dtype.
    """

    def __init__(self, u_labels, v_labels, edge_u, edge_v, edge_w):
        u_blob, u_sizes = _encoded("U", u_labels)
        v_blob, v_sizes = _encoded("V", v_labels)
        u_count, v_count = u_sizes.size, v_sizes.size
        eu = np.asarray(edge_u, dtype=np.int64)
        ev = np.asarray(edge_v, dtype=np.int64)
        ew = np.asarray(edge_w, dtype=np.float64)
        if eu.size == 0:
            raise DataError("empty graph: at least one edge is required")
        if not (eu.size == ev.size == ew.size):
            raise DataError("edge arrays have mismatched lengths")
        if eu.min() < 0 or eu.max() >= u_count:
            raise DataError("edge endpoint out of range on the U side")
        if ev.min() < 0 or ev.max() >= v_count:
            raise DataError("edge endpoint out of range on the V side")

        # Canonical order: U-side rows sorted by (u, v), one int64 key per
        # in-range pair. `_load`'s row check rejects a repeated pair; merging
        # belongs to from_edges / load_edge_list.
        order = np.argsort(eu * v_count + ev, kind="stable")
        self._load(b"".join((
            _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, u_count, v_count, eu.size),
            ew[order].astype("<f8", copy=False),
            np.cumsum(np.concatenate(([0], np.bincount(eu, minlength=u_count))), dtype="<i8"),
            np.cumsum(np.concatenate(([0], u_sizes, v_sizes)), dtype="<i8"),
            ev[order].astype("<i4"),
            u_blob, v_blob,
        )))

    def _load(self, buf):
        """Check the version-2 cache `buf` and build the graph on it.

        Layout (little endian): a 32-byte header of magic "BPGR", u32
        version, u64 u_count, u64 v_count and u64 edge_count; then
        the U side's CSR f8 weights[edge_count] and i8 indptr[u_count+1],
        i8 label_offsets[u_count+v_count+1], the CSR's i4
        indices[edge_count], and one UTF-8 blob holding the U labels then
        the V labels. Label i is blob[label_offsets[i]:label_offsets[i+1]].
        Every array starts at a multiple of its item size, so it is viewed
        in place. Only the U side is stored; the V side is derived here.

        Both `__init__` and `from_bytes` end here, and the buffer is trusted
        for nothing: canonical row order, no repeated pair, indices in
        range, positive finite weights, UTF-8 labels, distinct labels and no
        isolated node are checked, the edges in O(edges) and the labels by
        sorting them, and any violation raises DataError. Apart from the
        arrays the graph keeps, nothing here allocates more than `_BLOCK`
        edges' worth at a time.
        """
        if len(buf) < _HEADER.size or buf[:4] != CACHE_MAGIC:
            raise DataError("not a graph cache file (bad magic)")
        _, version, u_count, v_count, edge_count = _HEADER.unpack_from(buf)
        if version != CACHE_VERSION:
            raise DataError(
                f"graph cache version {version} is not supported (this build "
                f"reads version {CACHE_VERSION}); rerun `bipush preprocess` to rebuild it"
            )
        # Every count is bounded by the buffer before any array is viewed.
        w_at = _HEADER.size
        p_at = w_at + 8 * edge_count
        o_at = p_at + 8 * (u_count + 1)
        i_at = o_at + 8 * (u_count + v_count + 1)
        blob_at = i_at + 4 * edge_count
        if blob_at > len(buf):
            raise DataError("graph cache header counts exceed the file size")
        if edge_count == 0:
            raise DataError("empty graph: at least one edge is required")
        weights = np.frombuffer(buf, dtype="<f8", count=edge_count, offset=w_at)
        indptr = np.frombuffer(buf, dtype="<i8", count=u_count + 1, offset=p_at)
        offsets = np.frombuffer(buf, dtype="<i8", count=u_count + v_count + 1, offset=o_at)
        indices = np.frombuffer(buf, dtype="<i4", count=edge_count, offset=i_at)

        if indptr[0] != 0 or indptr[-1] != edge_count or (np.diff(indptr) < 0).any():
            raise DataError("corrupt adjacency offsets in graph cache")
        if indices.min() < 0 or indices.max() >= v_count:
            raise DataError("edge endpoint out of range in graph cache")
        # Within a row indices must strictly increase; a step that does not
        # is allowed only where a new row starts. A block at a time: the
        # steps into edges a..b-1, with the row starts among them exempt.
        for a in range(1, edge_count, _BLOCK):
            b = min(a + _BLOCK, edge_count)
            ok = np.diff(indices[a - 1:b]) > 0
            ok[indptr[np.searchsorted(indptr, a):np.searchsorted(indptr, b)] - a] = True
            if not ok.all():
                raise DataError("graph cache rows are unsorted or repeat an edge")

        blob = memoryview(buf)[blob_at:]
        if offsets[0] != 0 or offsets[-1] != len(blob) or (np.diff(offsets) < 0).any():
            raise DataError("corrupt label offsets in graph cache")
        _check_utf8(blob, offsets)
        if not (weights.min() > 0 and weights.max() < np.inf):  # both false for NaN
            raise DataError("edge weights must be positive and finite")
        u_order, v_order = _label_orders(blob, offsets, u_count)
        self._buf = buf  # the views keep it alive anyway; save, to_bytes and fingerprint use it
        self.u_count = u_count
        self.v_count = v_count
        self.edge_count = edge_count
        self.u_labels = LabelTable(blob, offsets[:u_count + 1], u_order)
        self.v_labels = LabelTable(blob, offsets[u_count:], v_order)

        # The V side is the U side's CSC. The counting sort keeps each
        # column's rows in ascending order, so it comes out canonical too.
        self.u_adj = CsrView(weights, indices, indptr, (u_count, v_count))
        self.v_adj = self.u_adj.transpose()
        # perfbench's resident_bytes finds the V side here; these go with ROADMAP item 1.
        self.v_indices, self.v_weights = self.v_adj.indices, self.v_adj.data
        self.deg_u = _frozen(np.diff(self.u_adj.indptr))
        self.deg_v = _frozen(np.diff(self.v_adj.indptr))
        for side, deg, labels in (("U", self.deg_u, self.u_labels), ("V", self.deg_v, self.v_labels)):
            if (deg == 0).any():
                i = int(np.flatnonzero(deg == 0)[0])
                raise DataError(f"isolated node on {side} side: {labels[i]!r}")

        # `csr_matvec` adds each row's terms left to right from 0.0, and
        # w * 1.0 is exact, so each sum is bit for bit what `np.bincount`
        # over the edges' row ids gives (a V row is in ascending U order).
        self.ws_u = _frozen(self.u_adj @ np.ones(self.v_count))
        self.ws_v = _frozen(self.v_adj @ np.ones(self.u_count))
        # The kernels divide weight sums by one another; a ratio that
        # overflows would turn scores into NaN.
        for side, ws in (("U", self.ws_u), ("V", self.ws_v)):
            with np.errstate(over="ignore", invalid="ignore"):
                spread = ws.max() / ws.min()
            if not np.isfinite(spread):
                raise DataError(
                    f"weight sums on the {side} side span too wide a range "
                    f"({ws.min():g} to {ws.max():g}) to score in float64"
                )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_edges(cls, u_labels, v_labels, triples):
        """Build a graph from (u_index, v_index, weight) triples.

        Triples repeating the same (u, v) pair are merged by summing weights
        in input order.
        """
        eu, ev, ew = tuple(zip(*triples, strict=True)) or ((), (), ())
        return cls._merged(u_labels, v_labels, eu, ev, ew)

    @classmethod
    def _merged(cls, u_labels, v_labels, edge_u, edge_v, edge_w):
        """Build from edge columns, summing a repeated pair's weights in input
        order. The stable sort keys are the separate columns: a combined
        u*|V|+v key could fold an out-of-range pair into a valid one."""
        eu = np.asarray(edge_u, dtype=np.int64)
        ev = np.asarray(edge_v, dtype=np.int64)
        ew = np.asarray(edge_w, dtype=np.float64)
        order = np.lexsort((ev, eu))
        eu, ev, ew = eu[order], ev[order], ew[order]
        first = np.ones(eu.size, dtype=bool)
        first[1:] = (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
        sums = np.bincount(np.cumsum(first) - 1, weights=ew)
        return cls(u_labels, v_labels, eu[first], ev[first], sums)

    # -- label lookup --------------------------------------------------------

    def u_id(self, label) -> int:
        try:
            return self.u_labels.index(label)
        except ValueError:
            raise DataError(f"unknown U-side label: {label!r}") from None

    def v_id(self, label) -> int:
        try:
            return self.v_labels.index(label)
        except ValueError:
            raise DataError(f"unknown V-side label: {label!r}") from None

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The graph's version-2 cache, laid out as `_load` describes. Every
        graph already holds it, so nothing is serialized."""
        return bytes(self._buf)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "BipartiteGraph":
        """Load a version-2 cache such as `to_bytes` returns.

        `_load` checks it, as it checks every constructed graph, and the
        arrays and the label blob are read-only views into `buf`, not
        copies. Any violation of the layout raises DataError.
        """
        g = cls.__new__(cls)
        g._load(buf)
        return g

    def save(self, path) -> None:
        """Write the graph's cache buffer, the bytes `fingerprint` hashes."""
        Path(path).write_bytes(self._buf)

    @classmethod
    def load(cls, path) -> "BipartiteGraph":
        return cls.from_bytes(Path(path).read_bytes())

    @cached_property
    def fingerprint(self) -> str:
        """Hex sha256 of the graph's cache buffer, which is what `save`
        writes, whether the graph was constructed or loaded."""
        return hashlib.sha256(self._buf).hexdigest()

    def __repr__(self):
        return (
            f"BipartiteGraph(u={self.u_count}, v={self.v_count}, "
            f"edges={self.edge_count})"
        )


def _encoded(side, labels):
    """One side's labels as their UTF-8 bytes, back to back, and each
    label's byte length."""
    encoded = []
    for label in labels:
        if not isinstance(label, str):
            raise DataError(f"{side}-side label is not a string: {label!r}")
        try:
            encoded.append(label.encode("utf-8"))
        except UnicodeEncodeError:
            raise DataError(f"{side}-side label cannot be encoded as UTF-8: {label!r}") from None
    return b"".join(encoded), np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))


def _check_utf8(blob, offsets) -> None:
    """Raise DataError unless every label in `blob` is valid UTF-8.

    Labels of valid UTF-8 join into valid UTF-8, and the joined text splits
    back into valid labels where no non-empty label starts on a
    continuation byte. So the blob is decoded once, `_CHUNK` bytes at a
    time, and only a failure decodes label by label, to name the reason
    the first bad label gives.
    """
    starts = offsets[:-1][offsets[1:] > offsets[:-1]]
    try:
        decoder = codecs.getincrementaldecoder("utf-8")()
        for a in range(0, len(blob), _CHUNK):
            decoder.decode(blob[a:a + _CHUNK])
        decoder.decode(b"", True)
        valid = not ((np.frombuffer(blob, np.uint8)[starts] & 0xC0) == 0x80).any()
    except UnicodeDecodeError:
        valid = False
    if not valid:
        for a, b in itertools.pairwise(offsets.tolist()):
            try:
                str(blob[a:b], "utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"graph cache label is not valid UTF-8: {exc.reason}") from None


def _label_orders(blob, offsets, u_count):
    """Each side's label indices sorted by (byte length, bytes).

    Raises DataError if a side repeats a label, and otherwise if a label
    is on both sides, naming the smallest shared label by code point.
    Labels of one length are compared as the rows of a byte matrix, one
    length at a time, so a label is never padded to a longer one's length
    and the matrices hold no more than the blob's bytes, plus padding to 8
    bytes for labels shorter than that. Keying on the length also keeps a
    trailing NUL byte significant.
    """
    data = np.frombuffer(blob, np.uint8)
    sizes = np.diff(offsets)
    by_size = np.argsort(sizes)
    parts, shared = [], []
    for idx in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        if idx.size > 1:
            perm, same = _sorted_rows(data, offsets[idx], int(sizes[idx[0]]))
            idx = idx[perm]
            on_v = idx >= u_count
            pairs = np.flatnonzero(same)
            # equal labels come in runs; a run of three or more, or two on one side, is a repeat
            if (same[1:] & same[:-1]).any() or (on_v[pairs] == on_v[pairs + 1]).any():
                raise DataError("duplicate node label within one side")
            shared.append(idx[pairs])
        parts.append(idx)
    if any(part.size for part in shared):
        first = min(str(blob[offsets[i]:offsets[i + 1]], "utf-8") for part in shared for i in part)
        raise DataError(f"label appears on both sides: {first!r}")
    order = np.concatenate(parts)
    kind = np.int32 if order.size <= np.iinfo(np.int32).max else np.int64
    on_u = order < u_count
    return _frozen(order[on_u], kind), _frozen(order[~on_u] - u_count, kind)


def _sorted_rows(data, starts, width):
    """Sort the labels `data[s:s+width]` for s in starts, all `width` bytes
    long. Returns the sorting permutation and whether each sorted label
    equals the next.

    Labels of up to 8 bytes are sorted as big-endian integers, longer ones
    as raw bytes. Rows are gathered a column at a time, or a row at a time
    when there are fewer rows than columns, and compared about `_CHUNK`
    bytes at a time.
    """
    count = starts.size
    rows = np.zeros((count, 8), np.uint8) if width <= 8 else np.empty((count, width), np.uint8)
    if count > width:
        for j in range(width):
            rows[:, j] = data[starts + j]
    else:
        for r, s in enumerate(starts.tolist()):
            rows[r, :width] = data[s:s + width]
    keys = rows.view(">u8" if width <= 8 else np.dtype((np.void, width)))[:, 0]
    perm = np.argsort(keys)
    same = np.empty(count - 1, dtype=bool)
    step = _CHUNK // keys.itemsize
    if step > 1:
        for a in range(0, count - 1, step):
            run = keys[perm[a:a + step + 1]]
            same[a:a + step] = run[1:] == run[:-1]
    else:  # rows of `_CHUNK` bytes or more are compared where they lie
        for a in range(count - 1):
            same[a] = np.array_equal(rows[perm[a]], rows[perm[a + 1]])
    return perm, same


def load_edge_list(source, delimiter=None, default_weight=None) -> BipartiteGraph:
    """Parse a text edge list into a graph.

    Each data line is "u_label v_label weight" (or "u_label v_label" when
    default_weight is given). Columns split on `delimiter`, or on any
    whitespace when it is None. Lines that are blank or start with '#' are
    skipped. Duplicate (u, v) pairs merge into one edge whose weight is
    their sum, added in file order.

    Args:
        source: path, text file object, or binary file object.
        delimiter: column separator; None means arbitrary whitespace.
        default_weight: weight for two-column lines; must be positive.

    Raises:
        DataError: on an unreadable path, a line that is not valid UTF-8,
            malformed lines, non-positive weights, labels used on both
            sides, or an empty graph.
    """
    if default_weight is not None and not 0 < default_weight < math.inf:
        raise DataError("default_weight must be positive and finite")

    # Undecodable bytes become lone surrogates, which the loop reports with
    # their line number; a decode error would only name a read-ahead chunk.
    if isinstance(source, (str, Path)):
        name = str(source)
        try:
            fh = open(source, "r", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise DataError(f"cannot read edge list {name!r}: {exc.strerror or exc}") from None
        close = True
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(source, "read") and isinstance(source.read(0), bytes)
    ):
        name = getattr(source, "name", "edge list")
        fh = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
        close = False
    else:
        name = getattr(source, "name", "edge list")
        fh = source
        close = False

    u_index: dict[str, int] = {}
    v_index: dict[str, int] = {}
    eu: list[int] = []
    ev: list[int] = []
    ew: list[float] = []
    try:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataError(f"{name}: line {lineno}: not valid UTF-8") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split(delimiter)
            if len(cols) == 2:
                if default_weight is None:
                    raise DataError(
                        f"line {lineno}: two columns but no default weight configured"
                    )
                w = float(default_weight)
            elif len(cols) == 3:
                try:
                    w = float(cols[2])
                except ValueError:
                    raise DataError(f"line {lineno}: bad weight {cols[2]!r}") from None
            else:
                raise DataError(f"line {lineno}: expected 2 or 3 columns, got {len(cols)}")
            if not 0 < w < math.inf:  # also false for NaN
                raise DataError(f"line {lineno}: weight must be positive, got {w}")
            ul, vl = cols[0], cols[1]
            if ul in v_index:
                raise DataError(f"line {lineno}: label appears on both sides: {ul!r}")
            if vl in u_index:
                raise DataError(f"line {lineno}: label appears on both sides: {vl!r}")
            eu.append(u_index.setdefault(ul, len(u_index)))
            ev.append(v_index.setdefault(vl, len(v_index)))
            ew.append(w)
    finally:
        if close:
            fh.close()
        elif fh is not source:
            fh.detach()  # else the wrapper's finalizer closes the caller's handle

    if not ew:
        raise DataError("empty graph: no data lines found")
    return BipartiteGraph._merged(list(u_index), list(v_index), eu, ev, ew)


def k_core_filter(g: BipartiteGraph, k: int) -> BipartiteGraph:
    """Iteratively drop nodes with fewer than k neighbors; rebuild the rest.

    Returns g itself when no node has fewer than k neighbors (always for
    k <= 1: no node is isolated by construction). Raises DataError when
    nothing survives.
    """
    if k <= 1:
        return g
    deg_u = g.deg_u.astype(np.int64)
    deg_v = g.deg_v.astype(np.int64)
    keep_u, keep_v = deg_u >= k, deg_v >= k
    drop_u, drop_v = np.flatnonzero(~keep_u), np.flatnonzero(~keep_v)
    if not (drop_u.size or drop_v.size):
        return g
    # Peel in rounds: the nodes a round drops take one degree from each
    # neighbor per shared edge, so every edge is counted off once and a long
    # chain of rounds never rescans the whole graph.
    u, v = g.u_adj, g.v_adj
    while drop_u.size or drop_v.size:
        deg_v -= np.bincount(u.indices[row_slots(u.indptr, drop_u, g.deg_u)], minlength=g.v_count)
        deg_u -= np.bincount(v.indices[row_slots(v.indptr, drop_v, g.deg_v)], minlength=g.u_count)
        drop_u = np.flatnonzero(keep_u & (deg_u < k))
        drop_v = np.flatnonzero(keep_v & (deg_v < k))
        keep_u[drop_u] = False
        keep_v[drop_v] = False
    if not keep_u.any():
        raise DataError(f"k-core is empty for k={k}")

    new_u = np.cumsum(keep_u) - 1
    new_v = np.cumsum(keep_v) - 1
    eu = np.repeat(np.arange(g.u_count), g.deg_u)
    ev = u.indices
    ok = keep_u[eu] & keep_v[ev]
    u_labels = [lab for lab, kp in zip(g.u_labels, keep_u) if kp]
    v_labels = [lab for lab, kp in zip(g.v_labels, keep_v) if kp]
    return BipartiteGraph(u_labels, v_labels, new_u[eu[ok]], new_v[ev[ok]], u.data[ok])


def synth_bipartite(
    u_count: int,
    v_count: int,
    edge_count: int,
    weight_range: tuple[float, float] = (0.0, 1.0),
    degree_skew: float | None = None,
    seed: int = 0,
) -> BipartiteGraph:
    """Deterministic random bipartite graph with every node covered.

    One permutation edge per node on each side guarantees degree >= 1; the
    remaining edges are distinct random pairs. Weights are drawn uniformly
    from (lo, hi]. With degree_skew=s > 0, random endpoints are drawn with
    probability proportional to (index+1)**(-s), giving low-index hubs.

    Requires max(u_count, v_count) <= edge_count <= u_count * v_count.
    """
    if u_count < 1 or v_count < 1:
        raise DataError("node counts must be positive")
    if edge_count < max(u_count, v_count) or edge_count > u_count * v_count:
        raise DataError(
            "edge_count must lie in [max(u_count, v_count), u_count * v_count]"
        )
    lo, hi = weight_range
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0 or hi <= 0 or lo > hi:
        raise DataError("weight_range must satisfy 0 <= lo <= hi, hi > 0")

    rng = np.random.default_rng(seed)

    if degree_skew is not None:
        if degree_skew <= 0:
            raise DataError("degree_skew must be positive when given")
        pu = (np.arange(u_count) + 1.0) ** (-degree_skew)
        pu /= pu.sum()
        pv = (np.arange(v_count) + 1.0) ** (-degree_skew)
        pv /= pv.sum()
    else:
        pu = pv = None

    def draw(count, n, p):
        if p is None:
            return rng.integers(0, count, size=n)
        return rng.choice(count, size=n, p=p)

    keys = np.empty(0, dtype=np.int64)  # u * v_count + v of each edge, in draw order
    seen = np.array([-1])  # the same keys sorted, after a sentinel below them all

    def take(batch):
        # Keep each first occurrence, in draw order, of a pair not drawn yet,
        # up to edge_count pairs in all.
        nonlocal keys, seen
        fresh = batch[np.sort(np.unique(batch, return_index=True)[1])]
        fresh = fresh[seen[np.searchsorted(seen, fresh, side="right") - 1] != fresh][: edge_count - keys.size]
        keys = np.concatenate([keys, fresh])
        seen = np.sort(np.concatenate([seen, fresh]), kind="stable")

    m = max(u_count, v_count)
    us = np.concatenate([rng.permutation(u_count), draw(u_count, m - u_count, pu)])
    vs = np.concatenate([rng.permutation(v_count), draw(v_count, m - v_count, pv)])
    rng.shuffle(vs)
    take(us * v_count + vs)
    if keys.size < edge_count and edge_count > (u_count * v_count) // 4:
        # Dense request: rejection sampling would crawl, enumerate cells instead.
        take(rng.permutation(u_count * v_count))
    while keys.size < edge_count:
        n = max(2 * (edge_count - keys.size), 256)
        take(draw(u_count, n, pu) * v_count + draw(v_count, n, pv))  # U's draws first

    ew = hi - rng.random(edge_count) * (hi - lo)
    eu, ev = np.divmod(keys, v_count)
    u_labels = [f"u{i}" for i in range(u_count)]
    v_labels = [f"v{i}" for i in range(v_count)]
    return BipartiteGraph(u_labels, v_labels, eu, ev, ew)
