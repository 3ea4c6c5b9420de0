"""Per-point feature aggregation and the Gaussian attribute head.

Three equivalent local-aggregation implementations are provided; row ``i``
of each result is the mean over the neighborhood
``{j : ||p_j - p_i|| < r}`` (strict inequality, self always included) of
``layer(concat(f_j, p_i - p_j))`` — neighbor features plus the
center-minus-neighbor offset:

* :func:`lfa_traversal` — scalar per-center scan; the reference oracle.
* :func:`lfa_broadcast_mask` — materializes the dense ``N x N`` mask and
  an ``N x N x (c_raw + 3)`` pair tensor; fast but memory-hungry.
* :func:`lfa_index_scatter` — enumerates neighbor pairs once, segment-means
  the per-pair inputs by center index, and applies the layer once per
  point; fast and lean.

All three evaluate squared distances with the same expression
``dx*dx + dy*dy + dz*dz`` and compare against ``r*r``, so the neighbor
sets are bit-identical across implementations.  The layer is affine, so
the two optimized variants project the neighborhood mean instead of
averaging per-neighbor projections; outputs then agree to the rounding of
that rearrangement (far below the 1e-9 equivalence budget).

Global aggregation (:func:`gfa`) is a single pre-norm self-attention
block: ``f1 = Linear(f)``; ``(Q, K, V) = Linear(LayerNorm(f1))`` as one
joint projection; ``f2 = SelfAttn(Q, K, V) + f1``;
``out = FFN(LayerNorm(f2)) + f2``, where SelfAttn is
``softmax(Q K^T / sqrt(d_head)) V`` per head, heads concatenated and
output-projected, and the FFN is two linear layers around an exact GELU.

:func:`predict_attributes` turns aggregated features into renderable
Gaussian primitives: positive scales via softplus plus a floor, a
normalized quaternion, opacity fixed at 1, and the mean fixed at the
source point position.

Weight files use the ``RGWT`` format: magic, u32 version (=1), then named
tensors (u32 name length, UTF-8 name, u32 rank, u32 dims, little-endian
float64 payload) until end of file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erf

from .errors import AllocationLimit, FormatError, InvalidSpec, ShapeMismatch
from .geom import quat_normalize
from .pointcloud import PointCloud
from .rng import SplitMix64, stream_seed

Array = np.ndarray

#: Neighborhood radius (meters) of the local aggregation.
DEFAULT_RADIUS = 0.32
#: Feature dimension of the encoder.
DEFAULT_DIM = 64
#: Additive floor applied to softplus scale outputs (meters).
SCALE_FLOOR = 1e-3
#: Default cap for the dense broadcast buffers (bytes).
DEFAULT_MEM_CAP = 1 << 30
#: Rows per block when building the neighbor index (keeps transients at
#: ``ROW_CHUNK * N`` instead of ``N * N``).
ROW_CHUNK = 256

_W_MAGIC = b"RGWT"
_W_VERSION = 1


# ---------------------------------------------------------------------------
# Layers


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
        object.__setattr__(self, "weight", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float64)
            if b.shape != (w.shape[0],):
                raise ShapeMismatch(
                    f"bias shape {b.shape} does not match out_dim {w.shape[0]}"
                )
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
            out = out + self.bias
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
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "beta", b)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def apply(self, x: Array) -> Array:
        mu = x.mean(axis=-1, keepdims=True)
        var = np.square(x - mu).mean(axis=-1, keepdims=True)
        return self.gamma * (x - mu) / np.sqrt(var + self.eps) + self.beta


def gelu(x: Array) -> Array:
    """Exact Gaussian-error linear unit: ``0.5 * x * (1 + erf(x / sqrt(2)))``."""
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def softplus(x: Array) -> Array:
    """Overflow-safe ``log(1 + exp(x))``."""
    return np.logaddexp(0.0, x)


def _softmax_rows(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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


def _sq_dists(a: Array, b: Array) -> Array:
    """Pairwise squared distances, shape (len(a), len(b)).

    The rounding sequence mirrors the scalar scan in :func:`lfa_traversal`
    term-for-term — ``(dx*dx + dy*dy) + dz*dz`` — so every implementation
    sees bit-identical values; the in-place updates only cut temporaries.
    """
    return _sq_dists_into(
        a, b, np.empty((a.shape[0], b.shape[0])), np.empty((a.shape[0], b.shape[0]))
    )


def _sq_dists_into(a: Array, b: Array, d2: Array, t: Array) -> Array:
    """Same computation as :func:`_sq_dists` into caller-owned scratch."""
    # huge finite coordinates overflow to inf, which just means "not a neighbour"
    with np.errstate(over="ignore"):
        np.subtract(a[:, 0][:, None], b[:, 0][None, :], out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(a[:, 1][:, None], b[:, 1][None, :], out=t)
        np.multiply(t, t, out=t)
        d2 += t
        np.subtract(a[:, 2][:, None], b[:, 2][None, :], out=t)
        np.multiply(t, t, out=t)
        d2 += t
    return d2


def _check_lfa_args(cloud: PointCloud, layer: LinearLayer, r: float) -> None:
    if not (math.isfinite(r) and r > 0):
        raise InvalidSpec(f"neighborhood radius must be positive, got {r}")
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


def index_scatter_mem_bytes(n: int, c_raw: int, c: int, n_pairs: int) -> int:
    """Dominant transient bytes of :func:`lfa_index_scatter`: the larger of
    the chunked index-build phase and the reduce phase: the pair indices,
    the ``n_pairs x (c_raw + 3)`` pair tensor, one gathered position block,
    and the per-point input table, sums, means and output."""
    build = 9 * min(n, ROW_CHUNK) * n + 16 * n_pairs
    reduce = n_pairs * (16 + 24 + 8 * (c_raw + 3)) + 8 * n * (3 * (c_raw + 3) + c)
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
    mask = _sq_dists(pos, pos) < r * r
    pair = np.empty((n, n, k + 3))
    pair[:, :, :k] = cloud.features[None, :, :]
    pair[:, :, k:] = pos[:, None, :] - pos[None, :, :]
    pair *= mask[:, :, None]
    counts = mask.sum(axis=1)
    return layer.apply(pair.sum(axis=1) / counts[:, None])


@dataclass(frozen=True)
class NeighborIndex:
    """All (center, neighbor) pairs with distance < r, sorted by
    (row, col); every center appears at least once via its self-pair."""

    row_idx: Array
    col_idx: Array
    n_points: int

    def __post_init__(self) -> None:
        if self.row_idx.shape != self.col_idx.shape or self.row_idx.ndim != 1:
            raise ShapeMismatch("row_idx and col_idx must be equal-length 1-D")

    def __len__(self) -> int:
        return self.row_idx.shape[0]

    def counts(self) -> Array:
        """Neighbors per center, length ``n_points`` (every entry >= 1)."""
        return np.bincount(self.row_idx, minlength=self.n_points)


def build_neighbor_index(cloud: PointCloud, r: float) -> NeighborIndex:
    """Enumerate neighbor pairs in (row, col) order, chunking the distance
    evaluation by rows so transients stay at ``ROW_CHUNK * N``."""
    if not (math.isfinite(r) and r > 0):
        raise InvalidSpec(f"neighborhood radius must be positive, got {r}")
    n = len(cloud)
    pos = cloud.positions
    r2 = r * r
    rows, cols = [], []
    m = min(n, ROW_CHUNK)
    d2 = np.empty((m, n))
    t = np.empty((m, n))
    hit = np.empty((m, n), dtype=bool)
    for start in range(0, n, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, n)
        m = stop - start
        _sq_dists_into(pos[start:stop], pos, d2[:m], t[:m])
        np.less(d2[:m], r2, out=hit[:m])
        rr, cc = np.nonzero(hit[:m])
        rows.append(rr + start)
        cols.append(cc)
    if rows:
        row_idx = np.concatenate(rows)
        col_idx = np.concatenate(cols)
    else:
        row_idx = np.zeros(0, dtype=np.int64)
        col_idx = np.zeros(0, dtype=np.int64)
    return NeighborIndex(row_idx, col_idx, n)


def lfa_index_scatter(cloud: PointCloud, layer: LinearLayer, r: float) -> Array:
    """Sparse variant: gather per-pair inputs, segment-mean them by center
    index, then project each point's mean once."""
    _check_lfa_args(cloud, layer, r)
    n = len(cloud)
    if n == 0:
        return np.zeros((0, layer.out_dim))
    idx = build_neighbor_index(cloud, r)
    pos = cloud.positions
    k = cloud.c_raw
    # one gather yields (f_j, p_j); p_j is then overwritten by p_i - p_j
    pair = np.concatenate([cloud.features, pos], axis=1)[idx.col_idx]
    np.subtract(pos[idx.row_idx], pair[:, k:], out=pair[:, k:])
    counts = idx.counts()
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return layer.apply(np.add.reduceat(pair, starts, axis=0) / counts[:, None])


# ---------------------------------------------------------------------------
# Global feature aggregation


def gfa(cloud: PointCloud, block: AttentionBlock) -> Array:
    """Self-attention over all points of the cloud; returns (N, dim)."""
    if cloud.c_raw != block.input_proj.in_dim:
        raise ShapeMismatch(
            f"attention block expects {block.input_proj.in_dim} raw channels, "
            f"cloud provides {cloud.c_raw}"
        )
    n = len(cloud)
    if n == 0:
        return np.zeros((0, block.dim))
    f1 = block.input_proj.apply(cloud.features)
    qkv = block.qkv.apply(block.ln1.apply(f1))
    q, k, v = np.split(qkv, 3, axis=1)
    d_head = block.dim // block.n_heads
    heads_out = np.empty_like(q)
    for h in range(block.n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(d_head)
        heads_out[:, sl] = _softmax_rows(scores) @ v[:, sl]
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


def predict_attributes(
    cloud: PointCloud,
    f_lfa: Array,
    f_gfa: Array,
    head: LinearLayer,
    s_min: float = SCALE_FLOOR,
) -> list[GaussianPrimitive3D]:
    """Predict one Gaussian primitive per point.

    Head input is ``concat(f, f_lfa, f_gfa)`` per point; its output splits
    into scale logits (3, softplus + ``s_min``), quaternion logits (4,
    normalized), and the feature vector (the rest).  Means are the point
    positions exactly; opacity is fixed at 1.
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
    scales = softplus(raw[:, :3]) + s_min
    prims = []
    for i in range(n):
        prims.append(
            GaussianPrimitive3D(
                mean=cloud.positions[i].copy(),
                scales=scales[i],
                quat=quat_normalize(raw[i, 3:7]),
                opacity=1.0,
                features=raw[i, 7:].copy(),
            )
        )
    return prims


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

    @property
    def dim(self) -> int:
        return self.lfa.out_dim

    @property
    def c_raw(self) -> int:
        return self.lfa.in_dim - 3

    @property
    def feature_dim(self) -> int:
        """Channel count of the rendered feature map."""
        return self.head.out_dim - 7


def _seeded_uniform(seed: int, name: str, shape: tuple, fan_in: int) -> Array:
    """Tensor init: uniform in (-1/sqrt(fan_in), 1/sqrt(fan_in)), drawn
    row-major from the stream ``stream_seed(seed, name)``."""
    stream = SplitMix64(stream_seed(seed, name))
    size = int(np.prod(shape)) if shape else 1
    vals = (2.0 * stream.uniforms(size) - 1.0) / math.sqrt(fan_in)
    return vals.reshape(shape)


def init_weights(
    seed: int,
    c_raw: int = 4,
    c: int = DEFAULT_DIM,
    n_heads: int = 1,
    r: float = DEFAULT_RADIUS,
    s_min: float = SCALE_FLOOR,
    lfa_bias: bool = True,
) -> PgeParams:
    """Deterministic parameter set: every tensor gets its own named stream,
    so any one tensor is reproducible without drawing the others."""
    if c < 1 or c_raw < 1:
        raise InvalidSpec(f"need c >= 1 and c_raw >= 1, got c={c}, c_raw={c_raw}")
    if n_heads < 1 or c % n_heads:
        raise InvalidSpec(f"head count {n_heads} must divide dim {c}")

    def lin(name: str, out_dim: int, in_dim: int, bias: bool = True) -> LinearLayer:
        w = _seeded_uniform(seed, f"{name}.weight", (out_dim, in_dim), in_dim)
        b = _seeded_uniform(seed, f"{name}.bias", (out_dim,), in_dim) if bias else None
        return LinearLayer(w, b)

    attn = AttentionBlock(
        input_proj=lin("gfa.input", c, c_raw),
        ln1=LayerNormParams(np.ones(c), np.zeros(c)),
        qkv=lin("gfa.qkv", 3 * c, c),
        out_proj=lin("gfa.out", c, c),
        ln2=LayerNormParams(np.ones(c), np.zeros(c)),
        ffn1=lin("gfa.ffn1", 2 * c, c),
        ffn2=lin("gfa.ffn2", c, 2 * c),
        n_heads=n_heads,
    )
    return PgeParams(
        lfa=lin("lfa", c, c_raw + 3, bias=lfa_bias),
        attn=attn,
        head=lin("head", 7 + c, c_raw + 2 * c),
        r=r,
        s_min=s_min,
    )


def _named_tensors(params: PgeParams) -> dict[str, Array]:
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


def _read_exact(fh, size: int, what: str) -> bytes:
    blob = fh.read(size)
    if len(blob) != size:
        raise FormatError(f"RGWT file truncated inside {what}")
    return blob


def load_weights(path) -> PgeParams:
    """Read an ``RGWT`` file back into a parameter set."""
    named: dict[str, Array] = {}
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _W_MAGIC:
            raise FormatError("not an RGWT weights file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != _W_VERSION:
            raise FormatError(f"unsupported RGWT version {version}")
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise FormatError("RGWT file truncated inside tensor header")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "tensor rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            count = int(np.prod(shape)) if rank else 1
            payload = _read_exact(fh, 8 * count, f"tensor {name!r}")
            named[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)

    def take(name: str) -> Array:
        if name not in named:
            raise FormatError(f"RGWT file is missing tensor {name!r}")
        return named[name].astype(np.float64)

    def lin(name: str) -> LinearLayer:
        bias = f"{name}.bias"
        return LinearLayer(
            take(f"{name}.weight"),
            take(bias) if bias in named else None,
        )

    def ln(name: str) -> LayerNormParams:
        return LayerNormParams(
            take(f"{name}.gamma"), take(f"{name}.beta"), float(take(f"{name}.eps"))
        )

    attn = AttentionBlock(
        input_proj=lin("gfa.input"),
        ln1=ln("gfa.ln1"),
        qkv=lin("gfa.qkv"),
        out_proj=lin("gfa.out"),
        ln2=ln("gfa.ln2"),
        ffn1=lin("gfa.ffn1"),
        ffn2=lin("gfa.ffn2"),
        n_heads=int(take("meta.n_heads")),
    )
    return PgeParams(
        lfa=lin("lfa"),
        attn=attn,
        head=lin("head"),
        r=float(take("meta.r")),
        s_min=float(take("meta.s_min")),
    )
