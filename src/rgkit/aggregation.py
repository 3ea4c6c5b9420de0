"""Per-point feature aggregation and the Gaussian attribute head.

Three equivalent local-aggregation implementations are provided; row ``i``
of each result is the mean over the neighborhood
``{j : ||p_j - p_i|| < r}`` (strict inequality, self always included) of
``layer(concat(f_j, p_i - p_j))`` — neighbor features plus the
center-minus-neighbor offset:

* :func:`lfa_traversal` — scalar per-center scan; the reference oracle.
* :func:`lfa_broadcast_mask` — materializes the dense ``N x N`` mask and
  an ``N x N x (c_raw + 3)`` pair tensor; fast but memory-hungry.
* :func:`lfa_index_scatter` — takes candidate pairs from a NumPy cell
  list (cubes of side ``r (1 + 1e-9)``; each point meets the rest of its
  own cell and its 13 forward neighbour cells, so each unordered pair is
  proposed once), keeps those the distance kernel accepts, segment-means
  the per-pair inputs by center index, and applies the layer once per
  point; fast and lean.

All three evaluate squared distances with the same expression
``dx*dx + dy*dy + dz*dz`` and compare against ``r*r``, so the neighbor
sets are bit-identical across implementations; the cell list only
proposes a superset of candidates.  The layer is affine, so the two optimized
variants project the neighborhood mean instead of averaging per-neighbor
projections; outputs then agree to the rounding of that rearrangement
(far below the 1e-9 equivalence budget).

Global aggregation (:func:`gfa`) is a single pre-norm self-attention
block: ``f1 = Linear(f)``; ``(Q, K, V) = Linear(LayerNorm(f1))`` as one
joint projection; ``f2 = SelfAttn(Q, K, V) + f1``;
``out = FFN(LayerNorm(f2)) + f2``, where SelfAttn is
``softmax(Q K^T / sqrt(d_head)) V`` per head, heads concatenated and
output-projected, and the FFN is two linear layers around an exact GELU.
It runs factored through ``LayerNorm(f1) = Z G``, Z of rank ``c_raw + 2``,
over blocks of query rows (Rabe & Staats, 2021) that ``mem_cap`` bounds.

:func:`predict_attribute_arrays` turns aggregated features into the
arrays of renderable Gaussian primitives: positive scales via softplus
plus a floor, a normalized quaternion, opacity fixed at 1, and the mean
fixed at the source point position.

Weight files use the ``RGWT`` format: magic, u32 version (=1), then named
tensors (u32 name length, UTF-8 name, u32 rank, u32 dims, little-endian
float64 payload) until end of file.  A malformed file raises
:class:`FormatError`; an out-of-range ``r``, ``s_min`` or ``eps``, or a
non-finite layer tensor, :class:`InvalidSpec`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (DEFAULT_DIM, DEFAULT_MEM_CAP, DEFAULT_RADIUS, SCALE_FLOOR, check_radius,
                     check_scale_floor)
from .errors import AllocationLimit, FormatError, InvalidSpec, ShapeMismatch
from .geom import quat_normalize
from .pointcloud import PointCloud
from .rng import SplitMix64, stream_seed
from .special import gelu

Array = np.ndarray

#: Largest parameter set :func:`init_weights` draws (bytes).  It is not
#: ``mem_cap``, which bounds each stage's input-sized buffers and may be far
#: smaller than any weights; a cloud header with billions of channels would
#: otherwise ask for terabytes.
MAX_WEIGHT_BYTES = 1 << 30
#: Query rows per attention score block; a small block stays resident in cache.
GFA_ROWS = 64
#: Neighbour candidates decided per block (whole points: fewer than N more).
CANDIDATE_BLOCK = 1 << 15

#: Cell-list keys pack the (x, y, z) cell coordinates in 21-bit fields.
_KEY_Y = 1 << 21
_KEY_X = 1 << 42
#: Cells are r (1 + 1e-9) wide within 2^_CELL_BITS cells of the median.
_CELL_BITS = 19
#: Key offsets of the cell columns (dx, dy) a point searches, all at dz = 0:
#: its own, then the four forward ones, (0, 1), (1, -1), (1, 0) and (1, 1).
_COLUMNS = (0, _KEY_Y, _KEY_X - _KEY_Y, _KEY_X, _KEY_X + _KEY_Y)

_W_MAGIC = b"RGWT"
_W_VERSION = 1


# ---------------------------------------------------------------------------
# Layers


def _check_finite(name: str, values: Array) -> None:
    """A NaN or infinite parameter would reach every map value it touches."""
    if not np.isfinite(values).all():
        raise InvalidSpec(f"layer {name} must hold only finite values")


@dataclass(frozen=True)
class LinearLayer:
    """Affine map ``x -> x @ weight.T + bias`` with ``weight`` of shape
    (out_dim, in_dim) and optional ``bias`` of shape (out_dim,)."""

    weight: Array
    bias: Optional[Array] = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weight, dtype=np.float64)
        if w.ndim != 2:
            raise ShapeMismatch(f"weight must be 2-D, got shape {w.shape}")
        _check_finite("weight", w)
        object.__setattr__(self, "weight", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float64)
            if b.shape != (w.shape[0],):
                raise ShapeMismatch(
                    f"bias shape {b.shape} does not match out_dim {w.shape[0]}"
                )
            _check_finite("bias", b)
            object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: Array) -> Array:
        """Apply to a batch: (..., in_dim) -> (..., out_dim)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise ShapeMismatch(
                f"layer expects {self.in_dim} input channels, got {x.shape[-1]}"
            )
        out = x @ self.weight.T
        if self.bias is not None:
            out += self.bias
        return out


@dataclass(frozen=True)
class LayerNormParams:
    """Per-channel normalization ``gamma * (x - mean) / sqrt(var + eps) + beta``
    with biased variance over the last axis."""

    gamma: Array
    beta: Array
    eps: float = 1e-5

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma, dtype=np.float64)
        b = np.asarray(self.beta, dtype=np.float64)
        if g.ndim != 1 or g.shape != b.shape:
            raise ShapeMismatch(f"gamma/beta must be equal 1-D, got {g.shape}, {b.shape}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise InvalidSpec(f"layer norm eps must be finite and > 0, got {self.eps}")
        _check_finite("gamma", g)
        _check_finite("beta", b)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "beta", b)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def apply(self, x: Array) -> Array:
        mu = x.mean(axis=-1, keepdims=True)
        var = np.square(x - mu).mean(axis=-1, keepdims=True)
        return self.gamma * (x - mu) / np.sqrt(var + self.eps) + self.beta


def softplus(x: Array) -> Array:
    """Overflow-safe ``log(1 + exp(x))``."""
    return np.logaddexp(0.0, x)


@dataclass(frozen=True)
class AttentionBlock:
    """One pre-norm self-attention block with residuals and an FFN.

    ``input_proj`` lifts raw channels to the model dimension; ``qkv`` is a
    single joint projection producing queries, keys, and values stacked
    along the output axis (in that order).
    """

    input_proj: LinearLayer
    ln1: LayerNormParams
    qkv: LinearLayer
    out_proj: LinearLayer
    ln2: LayerNormParams
    ffn1: LinearLayer
    ffn2: LinearLayer
    n_heads: int = 1

    def __post_init__(self) -> None:
        c = self.dim
        checks = [
            (self.ln1.dim == c, "ln1 width"),
            (self.qkv.in_dim == c and self.qkv.out_dim == 3 * c, "qkv projection"),
            (self.out_proj.in_dim == c and self.out_proj.out_dim == c, "out projection"),
            (self.ln2.dim == c, "ln2 width"),
            (self.ffn1.in_dim == c, "ffn input width"),
            (self.ffn2.out_dim == c, "ffn output width"),
            (self.ffn2.in_dim == self.ffn1.out_dim, "ffn hidden width"),
            (self.n_heads >= 1 and c % self.n_heads == 0, "head count divides dim"),
        ]
        for ok, what in checks:
            if not ok:
                raise ShapeMismatch(f"attention block mismatch: {what}")

    @property
    def dim(self) -> int:
        return self.input_proj.out_dim


# ---------------------------------------------------------------------------
# Local feature aggregation


def _sq_norms(offsets: Array) -> Array:
    """Squared lengths of (..., 3) offsets.

    The rounding sequence mirrors the scalar scan in :func:`lfa_traversal`
    term-for-term — ``(dx*dx + dy*dy) + dz*dz`` — so every implementation
    sees bit-identical values; the squares of ``p_i - p_j`` and
    ``p_j - p_i`` are equal, so either orientation may be passed.
    """
    dx, dy, dz = offsets[..., 0], offsets[..., 1], offsets[..., 2]
    return (dx * dx + dy * dy) + dz * dz


def _check_lfa_args(cloud: PointCloud, layer: LinearLayer, r: float) -> None:
    check_radius(r)
    if layer.in_dim != cloud.c_raw + 3:
        raise ShapeMismatch(
            f"layer expects {layer.in_dim} channels but cloud provides "
            f"{cloud.c_raw} features + 3 offsets"
        )


def lfa_traversal(cloud: PointCloud, layer: LinearLayer, r: float) -> Array:
    """Reference implementation: explicit scalar scan per center point.

    Deliberately unvectorized neighbor search — this is both the
    correctness oracle for the optimized variants and the slow baseline
    of the benchmark harness.
    """
    _check_lfa_args(cloud, layer, r)
    n = len(cloud)
    out = np.zeros((n, layer.out_dim))
    if n == 0:
        return out
    pos = cloud.positions
    feats = cloud.features
    xs = pos[:, 0].tolist()
    ys = pos[:, 1].tolist()
    zs = pos[:, 2].tolist()
    r2 = r * r
    for i in range(n):
        xi, yi, zi = xs[i], ys[i], zs[i]
        neigh = []
        append = neigh.append
        for j in range(n):
            dx = xs[j] - xi
            dy = ys[j] - yi
            dz = zs[j] - zi
            if dx * dx + dy * dy + dz * dz < r2:
                append(j)
        block = np.concatenate([feats[neigh], pos[i] - pos[neigh]], axis=1)
        out[i] = layer.apply(block).mean(axis=0)
    return out


def broadcast_mem_bytes(n: int, c_raw: int) -> int:
    """Dominant transient bytes of :func:`lfa_broadcast_mask`: the
    ``N x N x (c_raw + 3)`` float64 pair tensor plus the float64 squared
    distances and the boolean mask."""
    return n * n * (8 * (c_raw + 3) + 9)


def traversal_mem_bytes(n: int, c_raw: int, c: int) -> int:
    """Dominant transient bytes of :func:`lfa_traversal`: the worst-case
    per-center gather block and its projected counterpart."""
    return 8 * n * (c_raw + 3 + c)


def index_scatter_mem_bytes(
    n: int, c_raw: int, c: int, n_pairs: int, n_candidates: int | None = None
) -> int:
    """Dominant transient bytes of :func:`lfa_index_scatter` with
    ``n_pairs`` ordered neighbor pairs (self-pairs included) out of
    ``n_candidates`` unordered cell-list candidates; ``None`` stands for
    a full block of them.  The index build holds the cell list (the
    relative cells, keys, sort order, sorted positions and per-point
    candidate ranges), one block of candidates (at most
    ``CANDIDATE_BLOCK + n``) with its two gathered position blocks, the
    kept pairs as keys, and at the end the sorted keys with the rows and
    columns.  The reduce phase holds the index, the ``n_pairs x (c_raw + 3)``
    pair tensor, one gathered position block, the per-point table, counts,
    offsets, sums, means and output (before and after the bias), and
    matmul's 64 KiB buffer."""
    block = CANDIDATE_BLOCK + n
    if n_candidates is not None:
        block = min(block, n_candidates)
    build = 24 * n_pairs + 72 * block + 240 * n
    reduce = n_pairs * (40 + 8 * (c_raw + 3)) + 8 * n * (3 * (c_raw + 3) + 2 * c + 2) + 65536
    return max(build, reduce)


def lfa_broadcast_mask(
    cloud: PointCloud,
    layer: LinearLayer,
    r: float,
    mem_cap: int = DEFAULT_MEM_CAP,
) -> Array:
    """Dense variant: broadcast all pairs, mask by distance, mean, project.

    The layer is affine, so projecting the masked neighborhood mean equals
    the mean of per-neighbor projections up to rounding.
    """
    _check_lfa_args(cloud, layer, r)
    n = len(cloud)
    if n == 0:
        return np.zeros((0, layer.out_dim))
    need = broadcast_mem_bytes(n, cloud.c_raw)
    if need > mem_cap:
        raise AllocationLimit(
            f"broadcast buffers need {need} bytes for N={n}, cap is {mem_cap}"
        )
    pos = cloud.positions
    k = cloud.c_raw
    pair = np.empty((n, n, k + 3))
    pair[:, :, :k] = cloud.features[None, :, :]
    # offsets between huge finite coordinates overflow to inf; those pairs
    # are never neighbours, and zeroing them (not multiplying by the mask)
    # keeps inf * 0 = NaN out of the row sums
    with np.errstate(over="ignore"):
        pair[:, :, k:] = pos[:, None, :] - pos[None, :, :]
        mask = _sq_norms(pair[:, :, k:]) < r * r
    pair[~mask] = 0.0
    counts = mask.sum(axis=1)
    return layer.apply(pair.sum(axis=1) / counts[:, None])


@dataclass(frozen=True)
class NeighborIndex:
    """All (center, neighbor) pairs with distance < r, sorted by
    (row, col); every center appears at least once via its self-pair."""

    row_idx: Array
    col_idx: Array
    n_points: int
    #: unordered candidate pairs the cell list proposed
    n_candidates: int = 0

    def __post_init__(self) -> None:
        if self.row_idx.shape != self.col_idx.shape or self.row_idx.ndim != 1:
            raise ShapeMismatch("row_idx and col_idx must be equal-length 1-D")

    def __len__(self) -> int:
        return self.row_idx.shape[0]

    def counts(self) -> Array:
        """Neighbors per center, length ``n_points`` (every entry >= 1)."""
        return np.bincount(self.row_idx, minlength=self.n_points)


def _cell_width(rel: Array) -> Array:
    """Width of the cell at ``rel`` cell sides from the median: 1 within
    2^_CELL_BITS of it, then a 2^-_CELL_BITS share of its power of two."""
    return np.ldexp(1.0, np.maximum(np.frexp(rel)[1] - _CELL_BITS, 0))


def _cell_ranges(pos: Array, r: float) -> tuple:
    """Cell list of the positions: the permutation that sorts the points by
    cell, and per point in that order the counts and first sorted positions
    of its candidates, one range per cell column (see :data:`_COLUMNS`).

    A point's candidates are the points after it in its own cell and all
    points of its 13 forward neighbour cells, so each unordered candidate
    pair is proposed once."""
    # Cells are counted from the per-axis median, a point of the cloud: an
    # offset of the cloud moves no point to another cell, and one far
    # outlier cannot push the rest into one cell, as it could from the
    # minimum corner.  Why the candidates are a superset of the neighbours:
    # a neighbour pair's offset is below r (1 + 3e-16) on every axis, since
    # the kernel's squares are rounded, so below 1 - 1e-9 cell sides.
    # The subtraction and the division put a point's cell coordinate off by
    # at most 2^-52 of its size.  Within 2^19 cells of the median cells are
    # cubes of side r (1 + 1e-9): a pair there is off by under 2^-30 cells,
    # which the 1e-9 slack covers.  Farther out the error grows with the
    # distance, so a cell is 2^-19 of the coordinate's power of two wide:
    # the error stays far below a cell, and no whole cell fits between the
    # two points of a pair.  Overflow to inf gives one cell at each end.
    # Rounding is monotone, so a neighbour pair's two cells are the same
    # or next to each other.  Each axis then numbers its occupied cells in
    # order, a cell that directly follows the one before 1 further and any
    # other 2, so next cells stay next and the numbers stay below 2N.
    n = len(pos)
    with np.errstate(over="ignore"):
        rel = pos - np.partition(pos, n // 2, axis=0)[n // 2]
        rel /= r * (1 + 1e-9)
    cell = np.empty((n, 3), dtype=np.int64)
    for k in range(3):
        # each point's cell by its lower edge: exact, and monotone
        width = _cell_width(rel[:, k])
        edge, of = np.unique(np.floor(rel[:, k] / width) * width, return_inverse=True)
        # the cell after edge[i] starts at most width(edge[i]) later, and
        # two edges that close differ exactly: both are multiples of it.
        # The median's edge, 0, keeps every difference finite.
        step = np.where(np.diff(edge) <= _cell_width(edge[:-1]), 1, 2)
        num = np.concatenate([[0], np.cumsum(step)])
        # past 2^20, dropping low bits merges neighbouring numbers, which
        # keeps next cells next and leaves each field room for a +-1
        shift = max(int(num[-1]).bit_length() - 20, 0)
        cell[:, k] = (num[of] >> shift) + 1
    key = (cell[:, 0] * _KEY_X + cell[:, 1] * _KEY_Y) + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty((n, len(_COLUMNS)), dtype=np.intp)
    end = np.empty_like(first)
    # the own column: the rest of the own cell, then the cell at dz = +1
    first[:, 0] = np.arange(1, n + 1)
    end[:, 0] = np.searchsorted(key, key + 1, "right")
    for col, off in enumerate(_COLUMNS[1:], 1):
        # cells dz = -1, 0, +1 of one column are adjacent in key order
        first[:, col] = np.searchsorted(key, key + (off - 1), "left")
        end[:, col] = np.searchsorted(key, key + (off + 1), "right")
    end -= first
    return order, end, first


def _neighbor_index(pos: Array, r: float, check=None) -> NeighborIndex:
    """Neighbor pairs from the cell list's candidates, decided by the shared
    kernel in blocks of about :data:`CANDIDATE_BLOCK` candidates.  ``check``,
    if given, is called with the candidate count and the pairs kept so far
    before each block and once after the last."""
    n = len(pos)
    if n == 0:
        empty = np.zeros(0, dtype=np.intp)
        return NeighborIndex(empty, empty, 0)
    order, counts, first = _cell_ranges(pos, r)
    per_point = counts.sum(axis=1)
    candidates = int(per_point.sum())
    # blocks of whole points: a point proposes fewer than N candidates
    starts = np.cumsum(per_point) - per_point
    edges = [*np.searchsorted(starts, np.arange(0, candidates, CANDIDATE_BLOCK)).tolist(), n]
    pst = np.ascontiguousarray(pos[order].T)  # (3, N): one-axis takes are fast
    keys = []
    pairs = n
    for p0, p1 in zip(edges[:-1], edges[1:]):
        if check is not None:
            check(candidates, pairs)
        cnt = counts[p0:p1].ravel()
        a = np.repeat(np.arange(p0, p1), per_point[p0:p1])
        b = np.repeat(first[p0:p1].ravel() - (np.cumsum(cnt) - cnt), cnt)
        b += np.arange(b.size)
        d = pst.take(a, axis=1)
        # huge finite coordinates overflow to inf, which just means "not a neighbour"
        with np.errstate(over="ignore"):
            d -= pst.take(b, axis=1)
            keep = np.flatnonzero(_sq_norms(d.T) < r * r)
        del d
        a, b = order.take(a.take(keep)), order.take(b.take(keep))
        # both orientations as row * N + col, which sorts in (row, col) order
        keys += [a * n + b, b * n + a]
        pairs += 2 * a.size
    if check is not None:
        check(candidates, pairs)
    keys.append(np.arange(n) * (n + 1))
    key = np.concatenate(keys)
    del keys
    key.sort()
    rows, cols = np.divmod(key, n)
    return NeighborIndex(rows, cols, n, candidates)


def build_neighbor_index(cloud: PointCloud, r: float) -> NeighborIndex:
    """Enumerate neighbor pairs in (row, col) order: a cell list proposes
    candidate pairs (the fixed-radius search of Bentley, 1975) and the
    shared distance kernel decides which of them are neighbors."""
    check_radius(r)
    return _neighbor_index(cloud.positions, r)


def lfa_index_scatter(
    cloud: PointCloud, layer: LinearLayer, r: float, mem_cap: int = DEFAULT_MEM_CAP
) -> Array:
    """Sparse variant: gather per-pair inputs, segment-mean them by center
    index, then project each point's mean once.

    ``mem_cap`` bounds the bytes the pairs add to the per-point buffers
    (:func:`index_scatter_mem_bytes` at the candidate and pair counts minus
    that at N self-pairs), as it bounds the score block and not the
    (N, dim) arrays of :func:`gfa`.  The bound is checked from the exact
    candidate count before any candidate is expanded, before each block of
    candidates with the pairs kept so far, and at the final pair count; a
    count that does not fit raises :class:`AllocationLimit`."""
    _check_lfa_args(cloud, layer, r)
    n = len(cloud)
    if n == 0:
        return np.zeros((0, layer.out_dim))
    pos = cloud.positions
    k = cloud.c_raw
    base = index_scatter_mem_bytes(n, k, layer.out_dim, n, 0)

    def check(candidates: int, pairs: int) -> None:
        need = index_scatter_mem_bytes(n, k, layer.out_dim, pairs, candidates) - base
        if need > mem_cap:
            raise AllocationLimit(
                f"{2 * candidates + n} neighbour candidates of N={n} points add {need} bytes "
                f"at {pairs} pairs kept, cap is {mem_cap}"
            )

    idx = _neighbor_index(pos, r, check)
    # one gather yields (f_j, p_j); p_j is then overwritten by p_i - p_j
    pair = np.concatenate([cloud.features, pos], axis=1)[idx.col_idx]
    np.subtract(pos[idx.row_idx], pair[:, k:], out=pair[:, k:])
    counts = idx.counts()
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return layer.apply(np.add.reduceat(pair, starts, axis=0) / counts[:, None])


# ---------------------------------------------------------------------------
# Global feature aggregation


def gfa(cloud: PointCloud, block: AttentionBlock, mem_cap: int = DEFAULT_MEM_CAP) -> Array:
    """Self-attention over all points of the cloud; returns (N, dim).  Scores
    are built ``min(GFA_ROWS, mem_cap // (8 N))`` query rows at a time."""
    if cloud.c_raw != block.input_proj.in_dim:
        raise ShapeMismatch(
            f"attention block expects {block.input_proj.in_dim} raw channels, "
            f"cloud provides {cloud.c_raw}"
        )
    n = len(cloud)
    if n == 0:
        return np.zeros((0, block.dim))
    rows = min(GFA_ROWS, mem_cap // (8 * n))
    if rows < 1:
        raise AllocationLimit(f"one attention score row needs {8 * n} bytes, cap is {mem_cap}")
    proj, ln1 = block.input_proj, block.ln1
    f1 = proj.apply(cloud.features)
    # LN1(f1) = Z G with Z = [F / sigma, 1 / sigma, 1]: f1 minus its row mean
    # is F (W^T - row means) + (b - mean b), an affine map of F
    sigma = np.sqrt(np.square(f1 - f1.mean(axis=1, keepdims=True)).mean(axis=1) + ln1.eps)
    z = np.concatenate([cloud.features, np.ones((n, 2))], axis=1)
    z[:, :-1] /= sigma[:, None]
    wt = np.vstack([proj.weight.T, np.zeros(block.dim) if proj.bias is None else proj.bias])
    g = np.vstack([(wt - wt.mean(axis=1, keepdims=True)) * ln1.gamma, ln1.beta])
    g_qkv = g @ block.qkv.weight.T
    if block.qkv.bias is not None:
        g_qkv[-1] += block.qkv.bias
    g_q, g_k, g_v = np.split(g_qkv, 3, axis=1)
    d_head = block.dim // block.n_heads
    zt = np.ascontiguousarray(z.T)
    scores = np.empty((rows, n))
    heads_out = np.empty((n, block.dim))
    for h in range(block.n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        # the ones column of Z makes the last column of E Z the row sums of E
        za = z @ (g_q[:, sl] @ g_k[:, sl].T / math.sqrt(d_head))
        for r0 in range(0, n, rows):
            e = np.matmul(za[r0:r0 + rows], zt, out=scores[:min(rows, n - r0)])
            e -= e.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            ez = e @ z
            heads_out[r0:r0 + rows, sl] = (ez @ g_v[:, sl]) / ez[:, -1:]
    f2 = block.out_proj.apply(heads_out) + f1
    hidden = gelu(block.ffn1.apply(block.ln2.apply(f2)))
    return block.ffn2.apply(hidden) + f2


# ---------------------------------------------------------------------------
# Gaussian attribute head


@dataclass(frozen=True)
class GaussianPrimitive3D:
    """Renderable unit: mean and scales in meters, unit quaternion
    (scalar first), opacity in (0, 1], and a feature vector."""

    mean: Array
    scales: Array
    quat: Array
    opacity: float
    features: Array


def predict_attribute_arrays(
    cloud: PointCloud,
    f_lfa: Array,
    f_gfa: Array,
    head: LinearLayer,
    s_min: float = SCALE_FLOOR,
) -> tuple:
    """Predict every point's Gaussian attributes as arrays.

    Head input is ``concat(f, f_lfa, f_gfa)`` per point; its output splits
    into scale logits (3, softplus + ``s_min``), quaternion logits (4,
    normalized), and the feature vector (the rest).  Returns scales (N, 3),
    unit quaternions (N, 4) and features (N, C); the means are the point
    positions exactly and the opacity is fixed at 1.
    """
    n = len(cloud)
    if f_lfa.shape[0] != n or f_gfa.shape[0] != n:
        raise ShapeMismatch(
            f"aggregated features must have {n} rows, got "
            f"{f_lfa.shape[0]} and {f_gfa.shape[0]}"
        )
    expect_in = cloud.c_raw + f_lfa.shape[1] + f_gfa.shape[1]
    if head.in_dim != expect_in:
        raise ShapeMismatch(f"head expects {head.in_dim} inputs, got {expect_in}")
    if head.out_dim < 8:
        raise ShapeMismatch(
            f"head must emit 3 scales + 4 quat + >=1 feature, got {head.out_dim}"
        )
    raw = head.apply(np.concatenate([cloud.features, f_lfa, f_gfa], axis=1))
    return softplus(raw[:, :3]) + s_min, quat_normalize(raw[:, 3:7]), raw[:, 7:]


def predict_attributes(
    cloud: PointCloud, f_lfa: Array, f_gfa: Array, head: LinearLayer, s_min: float = SCALE_FLOOR
) -> list[GaussianPrimitive3D]:
    """:func:`predict_attribute_arrays` as one primitive per point."""
    scales, quats, features = predict_attribute_arrays(cloud, f_lfa, f_gfa, head, s_min)
    return [
        GaussianPrimitive3D(cloud.positions[i].copy(), scales[i], quats[i], 1.0, features[i].copy())
        for i in range(len(cloud))
    ]


# ---------------------------------------------------------------------------
# Parameter initialization and serialization


@dataclass(frozen=True)
class PgeParams:
    """Everything the encoder needs besides the cloud: the local
    aggregation layer and radius, the attention block, the attribute head,
    and the scale floor."""

    lfa: LinearLayer
    attn: AttentionBlock
    head: LinearLayer
    r: float = DEFAULT_RADIUS
    s_min: float = SCALE_FLOOR

    def __post_init__(self) -> None:
        check_radius(self.r)
        check_scale_floor(self.s_min)

    @property
    def feature_dim(self) -> int:
        """Channel count of the rendered feature map."""
        return self.head.out_dim - 7


def _seeded_uniform(seed: int, name: str, shape: tuple, fan_in: int) -> Array:
    """Tensor init: uniform in (-1/sqrt(fan_in), 1/sqrt(fan_in)), drawn
    row-major from the stream ``stream_seed(seed, name)``."""
    stream = SplitMix64(stream_seed(seed, name))
    vals = (2.0 * stream.uniforms(math.prod(shape)) - 1.0) / math.sqrt(fan_in)
    return vals.reshape(shape)


def _assemble(lin, ln, n_heads: int, r: float, s_min: float) -> PgeParams:
    """The parameter set from a maker of linear layers and one of layer
    norms, each called with the layer's RGWT name."""
    attn = AttentionBlock(lin("gfa.input"), ln("gfa.ln1"), lin("gfa.qkv"), lin("gfa.out"),
                          ln("gfa.ln2"), lin("gfa.ffn1"), lin("gfa.ffn2"), n_heads)
    return PgeParams(lin("lfa"), attn, lin("head"), r, s_min)


def _layer_shapes(c_raw: int, c: int) -> dict[str, tuple]:
    """(out_dim, in_dim) of every linear layer under its RGWT name."""
    return {"lfa": (c, c_raw + 3), "gfa.input": (c, c_raw), "gfa.qkv": (3 * c, c),
            "gfa.out": (c, c), "gfa.ffn1": (2 * c, c), "gfa.ffn2": (c, 2 * c),
            "head": (7 + c, c_raw + 2 * c)}


def weights_mem_bytes(c_raw: int, c: int) -> int:
    """Bytes of the float64 tensors of :func:`init_weights`: every weight
    and bias, and the two layer norms' gamma and beta."""
    return 8 * (sum(o * (i + 1) for o, i in _layer_shapes(c_raw, c).values()) + 4 * c)


def init_weights(
    seed: int,
    c_raw: int = 4,
    c: int = DEFAULT_DIM,
    n_heads: int = 1,
    r: float = DEFAULT_RADIUS,
    s_min: float = SCALE_FLOOR,
) -> PgeParams:
    """Deterministic parameter set: every tensor gets its own named stream,
    so any one tensor is reproducible without drawing the others.  The
    tensors must fit :data:`MAX_WEIGHT_BYTES` (:func:`weights_mem_bytes`)."""
    if c < 1 or c_raw < 1:
        raise InvalidSpec(f"need c >= 1 and c_raw >= 1, got c={c}, c_raw={c_raw}")
    if n_heads < 1 or c % n_heads:
        raise InvalidSpec(f"head count {n_heads} must divide dim {c}")
    need = weights_mem_bytes(c_raw, c)
    if need > MAX_WEIGHT_BYTES:
        raise AllocationLimit(
            f"weights for c_raw={c_raw}, c={c} need {need} bytes, cap is {MAX_WEIGHT_BYTES}")
    shapes = _layer_shapes(c_raw, c)

    def lin(name: str) -> LinearLayer:
        out_dim, in_dim = shapes[name]
        w = _seeded_uniform(seed, f"{name}.weight", (out_dim, in_dim), in_dim)
        return LinearLayer(w, _seeded_uniform(seed, f"{name}.bias", (out_dim,), in_dim))

    return _assemble(lin, lambda name: LayerNormParams(np.ones(c), np.zeros(c)), n_heads, r, s_min)


def _named_tensors(params: PgeParams) -> dict[str, Array]:
    """Every tensor under its RGWT name, in file order."""
    a = params.attn
    named: dict[str, Array] = {}
    pairs = [
        ("lfa", params.lfa),
        ("gfa.input", a.input_proj),
        ("gfa.qkv", a.qkv),
        ("gfa.out", a.out_proj),
        ("gfa.ffn1", a.ffn1),
        ("gfa.ffn2", a.ffn2),
        ("head", params.head),
    ]
    for name, layer in pairs:
        named[f"{name}.weight"] = layer.weight
        if layer.bias is not None:
            named[f"{name}.bias"] = layer.bias
    for name, ln in (("gfa.ln1", a.ln1), ("gfa.ln2", a.ln2)):
        named[f"{name}.gamma"] = ln.gamma
        named[f"{name}.beta"] = ln.beta
        named[f"{name}.eps"] = np.float64(ln.eps)
    named["meta.n_heads"] = np.float64(a.n_heads)
    named["meta.r"] = np.float64(params.r)
    named["meta.s_min"] = np.float64(params.s_min)
    return named


def save_weights(params: PgeParams, path) -> None:
    """Write all parameters to an ``RGWT`` file."""
    with open(path, "wb") as fh:
        fh.write(_W_MAGIC)
        fh.write(struct.pack("<I", _W_VERSION))
        for name, arr in _named_tensors(params).items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_weights(path) -> PgeParams:
    """Read an ``RGWT`` file back into a parameter set."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def read(size: int, what: str) -> bytes:
        nonlocal pos
        if size > len(blob) - pos:
            raise FormatError(f"RGWT file truncated inside {what}")
        pos += size
        return blob[pos - size:pos]

    if read(4, "magic") != _W_MAGIC:
        raise FormatError("not an RGWT weights file (bad magic)")
    (version,) = struct.unpack("<I", read(4, "version"))
    if version != _W_VERSION:
        raise FormatError(f"unsupported RGWT version {version}")
    named: dict[str, Array] = {}
    while pos < len(blob):
        (name_len,) = struct.unpack("<I", read(4, "tensor header"))
        try:
            name = read(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"RGWT tensor name at byte {pos - name_len} is not UTF-8") from None
        (rank,) = struct.unpack("<I", read(4, "tensor rank"))
        shape = struct.unpack(f"<{rank}I", read(4 * rank, "dims"))
        # counted exactly: an int64 product of the dims can wrap (four 65536s give 0)
        payload = read(8 * math.prod(shape), f"tensor {name!r}")
        named[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)

    def take(name: str) -> Array:
        if name not in named:
            raise FormatError(f"RGWT file is missing tensor {name!r}")
        return named[name]

    def scalar(name: str) -> float:
        value = take(name)
        if value.ndim:
            raise FormatError(f"RGWT tensor {name!r} must be 0-d, got shape {value.shape}")
        return float(value)

    def lin(name: str) -> LinearLayer:
        return LinearLayer(take(f"{name}.weight"), named.get(f"{name}.bias"))

    def ln(name: str) -> LayerNormParams:
        return LayerNormParams(take(f"{name}.gamma"), take(f"{name}.beta"), scalar(f"{name}.eps"))

    n_heads = scalar("meta.n_heads")
    if not n_heads.is_integer():
        raise FormatError(f"RGWT meta.n_heads must be a whole number, got {n_heads}")
    return _assemble(lin, ln, int(n_heads), scalar("meta.r"), scalar("meta.s_min"))
