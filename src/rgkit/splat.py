"""BEV Gaussian splatting: parallel projection of 3D Gaussian primitives
and tile-based alpha-blended rasterization into a dense feature map.

Projection is a parallel map with per-axis scaling.  For a BEV range
``[x_min, x_max] x [y_min, y_max]`` at resolution ``(h, w)``::

    M = [[w / (x_max - x_min), 0, 0],
         [0, h / (y_max - y_min), 0]]

    mean2d = M @ (mu - (x_min, y_min, 0))
    cov2d  = M @ Sigma @ M.T + lambda_blur * I,   Sigma = R S S^T R^T

so pixel column 0 starts at ``x_min`` and row 0 at ``y_min``; pixel
``(row, col)`` covers ``[col, col+1) x [row, row+1)`` and is sampled at
its center ``(col + 0.5, row + 0.5)``.  The ``lambda_blur`` diagonal
(default 0.3 px^2) keeps every footprint at least a pixel wide.  Every
splat must be a Gaussian (``cov2d`` in projection, ``cov2d_inv`` in
binning positive definite); any other raises :class:`SingularCovariance`.

Rasterization composites splats in ascending blend-key order
(configurable: ascending z, descending z, or input order; ties always
broken by source index).  At each pixel::

    alpha_i = clamp(o_i * exp(-0.5 * d^T cov2d_inv d), 0, alpha_max)

splats with ``alpha < alpha_min`` are skipped, the rest accumulate
``F[p] += f_i * alpha_i * T_i``, ``T_i`` being the product of ``1 - alpha``
over the splats used before ``i``; once ``T`` would drop below ``t_min``
the pixel stops early, without that splat (``t_min <= 0`` disables this).

Splats are binned to every 16 x 16 px tile, the fixed edge of 3D Gaussian
Splatting (Kerbl et al., 2023), whose rectangle of pixel centres brings
``d^T cov2d_inv d`` down to ``2 ln(opacity / alpha_min)`` (plus a float64
margin), the exact ellipse-tile test of FlashGS (Feng et al., 2024): the
minimum is 0 with the mean inside, else the least of four clamped 1-D edge
minima.  Binning is lossless, so tiles match the brute force
(:func:`rasterize_oracle`) up to 32- vs 64-bit rounding.  Each tile is
composited front to back with array operations over all its rows, as in
3DGS: one float32 ``cumprod`` of ``1 - alpha`` over the tile's rows for T,
the early stop as the mask ``T_after >= max(t_min, 0)`` (T never increases
and stays in [0, 1], so the mask keeps every entry at ``t_min <= 0``), and
one ``einsum`` that adds the splats in order in float32 at every tile and
channel count, without BLAS, so the map does not depend on BLAS threading.

Tiles are composited by W workers, the calling thread and W - 1 threads
started for the call and joined before it returns, which take the
non-empty tiles from one queue, deepest tile first.  W is the number of
CPUs the process may run on, at most :data:`MAX_WORKERS` and the number of
non-empty tiles, and lowered until each worker's share of ``mem_cap``
holds a :data:`BLOCK_BYTES` block and one pixel of the deepest tile.
Tiles cover disjoint pixels and every pixel is computed by the same
per-pixel kernel, whichever worker takes its tile, so the map bytes do not
depend on W or on the CPU affinity, and are bit-identical across runs.
Workers run in a copy of the caller's context, so :func:`encode`'s
``np.errstate`` holds in them too.  The first error in any worker stops
the queue and is raised once every worker has joined.

A tile runs in pixel groups: a few whole pixel rows, or part of one row
when a whole row does not fit, sized so that the group's buffers of
:data:`BLEND_ENTRY_BYTES` a (splat, pixel) fit ``min(mem_cap // W,
BLOCK_BYTES)``, one buffer set per worker; a group is one pixel at least,
and ``mem_cap`` must hold one pixel of the deepest tile.
Every step above is per pixel, and each group runs the same kernel over
all the tile's rows and sums the rows live in it, so each pixel adds the
same rows in the same order in any group and no map byte depends on the
group size.  A group writes only its lit rows: one where no splat is used
at any pixel skips its ``einsum`` and writes nothing, and one of several
pixel rows leaves out the rows before its first and after its last row
that is not +0 in every channel and column.  A one-row group, as at one
pixel, writes its row without that test, and +0 rows between lit ones
are written, as a store per run of rows cost more than it saved.
No byte moves: the map is +0 already, a sum over no rows is +0 (the
``einsum`` starts from +0), and a row is left out only where all its
bytes are 0, so NaN and -0 count as values.

The map is a private anonymous mapping in 4 KiB pages (``np.zeros`` where
the platform has no ``MAP_PRIVATE``, and at zero bytes).  Radar maps are
sparse: on a ``tj4d`` frame fewer than half of the map's pages hold a
nonzero value, and only pages holding a value become resident: a group
writes only its lit rows, and a 496-px float32 row is about half a page
(NumPy advises huge pages on its own arrays of 4 MB and more, so an
``np.zeros`` map is resident whole once touched).  After the last pixel
group, one ``madvise(MADV_POPULATE_READ)`` (Linux 5.14+) maps every
untouched page to the kernel's shared zero page, which is not counted as
resident, so reading the map to write it takes no page faults.  Populating
at allocation instead would turn every store into a copy-on-write fault.

:func:`encode` runs on arrays, one kernel per stage: the head's scales,
unit quaternions and features; projection to means (N, 2) and the inverse
of ``cov2d`` (N, 3), the only footprint later stages read, ``cov2d`` summed
elementwise from rows 0 and 1 of R S, not by a matmul; an ``np.lexsort``
into blend order; binning, which culls splats below ``alpha_min`` or
wholly off the map before any ``int`` conversion and spreads the rest
over the tiles their ellipses span by ``np.repeat`` for the exact test.
The blend's quadratic is separable: ``(ia dx) dx`` per (splat, column),
``(ic dy) dy`` per (splat, row) and only ``(2 ib)(dy dx)`` per pixel,
summed in the formula's order.  Rows unused at every pixel of a group
only multiply T by 1 and add +0, so they are left out of the ``einsum``.
The float64 oracle :func:`rasterize_oracle` takes the compositing's
blend-ordered arrays.  :func:`project_to_bev`, :func:`sort_splats`,
:func:`build_tile_grid` and :func:`rasterize` take per-splat objects
(:class:`Splat2D`), thin adapters over the same kernels kept only because
``perfbench`` calls them; they go once it runs on the arrays.

Feature-map files use the ``RGFM`` format: magic, u32 version (=1),
u32 C, u32 H, u32 W, the four range extents as little-endian float64,
then ``C*H*W`` little-endian float32 values, channel-major, row-major
within a channel.  A single channel can also be exported as a binary
8-bit PGM (min-max normalized) for visual inspection.
"""

from __future__ import annotations

import contextvars
import mmap
import os
import struct
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    GaussianPrimitive3D,
    PgeParams,
    gfa,
    lfa_index_scatter,
    predict_attribute_arrays,
)
from .config import BLEND_ORDERS, DEFAULT_MEM_CAP, BevRange, RasterSettings
from .errors import (
    AllocationLimit,
    FormatError,
    InvalidSpec,
    NonPositiveScale,
    ShapeMismatch,
    SingularCovariance,
)
from .geom import DET_EPS, quat_normalize
from .pointcloud import PointCloud

Array = np.ndarray

#: Transient bytes per (splat, tile) candidate while binning tests it.
BIN_CANDIDATE_BYTES = 300
#: Blend buffer bytes per (splat, pixel): q (8), use (1), weight (4) and T (4).
BLEND_ENTRY_BYTES = 17
#: Largest block of binning's candidates or of one pixel group's blend
#: buffers (bytes), whatever larger ``mem_cap`` allows: a block stays in L2.
BLOCK_BYTES = 1 << 20
#: Most threads that composite tiles, the caller among them.  Two is the
#: only count measured (on 2 CPUs); past it workers contend for the
#: interpreter lock, and whether more pay is unverified.
MAX_WORKERS = 2
#: Largest C x H x W float32 map that compositing allocates (bytes).  Not
#: ``mem_cap``, which bounds the per-stage buffers and may be far smaller
#: than any map.
MAX_MAP_BYTES = 1 << 30
#: ``MADV_POPULATE_READ`` (Linux 5.14+), which the ``mmap`` module does not name.
_MADV_POPULATE_READ = getattr(mmap, "MADV_POPULATE_READ", 22)

_MAGIC = b"RGFM"
_VERSION = 1
_HEADER = struct.Struct("<IIII4d")  # version, C, H, W, x_min, x_max, y_min, y_max


@dataclass(frozen=True)
class Splat2D:
    """Screen-space Gaussian: pixel-space mean, covariance (carried, read by no
    kernel) and its inverse, features, opacity and the (z, index) blend key."""

    mean2d: Array
    cov2d: Array
    cov2d_inv: Array
    features: Array
    opacity: float
    blend_key: tuple


@dataclass(frozen=True)
class BevFeatureMap:
    """Dense C x H x W float32 grid of blended features plus its range."""

    data: Array
    bev: BevRange

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=np.float32)
        if d.ndim != 3 or d.shape[1] != self.bev.h or d.shape[2] != self.bev.w:
            raise ShapeMismatch(
                f"data shape {d.shape} does not match range "
                f"(C, {self.bev.h}, {self.bev.w})"
            )
        object.__setattr__(self, "data", d)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BevFeatureMap):
            return NotImplemented
        return self.bev == other.bev and np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class TileGrid:
    """Per-tile splat index lists (indices into the blend-sorted splat
    sequence, ascending, i.e. already in blend order)."""

    tile_size: int
    n_tiles_x: int
    n_tiles_y: int
    tiles: tuple


#: (a, b, c) <-> [[a, b], [b, c]], and a, b, c of a flattened 2 x 2
_SYM = np.array([[0, 1], [1, 2]])
_ABC = [0, 1, 3]


def _project(means: Array, scales: Array, quats: Array, bev: BevRange, lambda_blur: float):
    """Pixel means (N, 2), ``cov2d`` (N, 3) as (a, b, c) of [[a, b], [b, c]]
    and its inverse (N, 3) of N 3D Gaussians."""
    bad = scales[scales <= 0.0]
    if bad.size:
        raise NonPositiveScale(f"scales must be positive, {bad.size} are not, the first {bad[0]}")
    w, x, y, z = quat_normalize(quats).T
    s0, s1, s2 = scales.T
    # rows 0 and 1 of R S, R as in geom.quat_to_rotmat
    u = (1.0 - 2.0 * (y * y + z * z)) * s0, 2.0 * (x * y - w * z) * s1, 2.0 * (x * z + w * y) * s2
    v = 2.0 * (x * y + w * z) * s0, (1.0 - 2.0 * (x * x + z * z)) * s1, 2.0 * (y * z - w * x) * s2
    sx, sy = bev.px_per_m_x, bev.px_per_m_y
    # a huge finite mean may overflow to inf; binning culls it as off-map.
    # Huge scales may overflow cov2d; the determinant test rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        mean2d = (means[:, :2] - (bev.x_min, bev.y_min)) * (sx, sy)
        a = (sx * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2])) * sx + lambda_blur
        b = (sx * (u[0] * v[0] + u[1] * v[1] + u[2] * v[2])) * sy
        c = (sy * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])) * sy + lambda_blur
        det = a * c - b * b
    # a, c are sums of squares plus lambda_blur: det > 0 makes the inverse positive definite
    bad = ~(det > DET_EPS) | (det == np.inf)
    if np.any(bad):
        raise SingularCovariance(f"projected covariance det {det[bad][0]:.3e} not invertible")
    cov2d = np.stack([a, b, c], 1)
    return mean2d, cov2d, cov2d[:, ::-1] * (1.0, -1.0, 1.0) / det[:, None]


def project_to_bev(
    g: GaussianPrimitive3D,
    bev: BevRange,
    lambda_blur: float = RasterSettings.lambda_blur,
    source_index: int = 0,
) -> Splat2D:
    """Project one 3D Gaussian onto the BEV pixel plane."""
    row = [np.asarray(v, dtype=np.float64)[None] for v in (g.mean, g.scales, g.quat)]
    mean2d, cov2d, inv = _project(*row, bev, lambda_blur)
    return Splat2D(mean2d=mean2d[0], cov2d=cov2d[0][_SYM], cov2d_inv=inv[0][_SYM],
                   features=np.asarray(g.features, dtype=np.float64), opacity=float(g.opacity),
                   blend_key=(float(g.mean[2]), int(source_index)))


def _columns(splats: list, name: str, *width) -> Array:
    """One attribute of every splat as a float64 (N, *width) array."""
    try:
        return np.array([getattr(s, name) for s in splats], dtype=np.float64).reshape(
            len(splats), *width)
    except ValueError:
        raise ShapeMismatch(f"a splat's {name} is not of size {np.prod(width):.0f}") from None


def _splat_arrays(splats: list) -> tuple:
    """Means (N, 2), inverse covariances (N, 3) and opacities (N,)."""
    return (_columns(splats, "mean2d", 2), _columns(splats, "cov2d_inv", 4)[:, _ABC],
            _columns(splats, "opacity"))


def _blend_order(z: Array, src: Array, blend_order: str) -> Array:
    """Permutation into compositing order; ties always fall back to source index."""
    keys = {"z-asc": (src, z), "z-desc": (src, -z), "index": (src,)}
    if blend_order not in keys:
        raise InvalidSpec(f"blend_order must be one of {BLEND_ORDERS}, got {blend_order!r}")
    return np.lexsort(keys[blend_order])


def sort_splats(splats: list, blend_order: str = RasterSettings.blend_order) -> list:
    """Order splats for compositing; ties always fall back to source index."""
    z, src = _columns(splats, "blend_key", 2).T
    return [splats[i] for i in _blend_order(z, src, blend_order)]


def _zero_map(channels: int, bev: BevRange) -> Array:
    """A zero C x H x W float32 map, refused past :data:`MAX_MAP_BYTES`: a
    private anonymous mapping, so only the pages written become resident."""
    need = 4 * channels * bev.h * bev.w
    if need > MAX_MAP_BYTES:
        raise AllocationLimit(f"a {channels} x {bev.h} x {bev.w} float32 map needs {need} "
                              f"bytes, cap is {MAX_MAP_BYTES}")
    shape = (channels, bev.h, bev.w)
    if need == 0 or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape, dtype=np.float32)
    # MAP_PRIVATE: the default shared mapping is shmem, whose populated
    # holes would be real pages
    buf = mmap.mmap(-1, need, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.ndarray(shape, dtype=np.float32, buffer=buf)


def _fill_holes(out: Array) -> None:
    """Back the pages of a :func:`_zero_map` map that nothing wrote with the
    shared zero page, which costs no RSS and spares a later read its faults.
    A kernel without ``MADV_POPULATE_READ`` leaves the map as it is."""
    if sys.platform.startswith("linux") and isinstance(out.base, mmap.mmap):
        try:
            out.base.madvise(_MADV_POPULATE_READ)
        except OSError:
            pass


def _tile_grid(bev: BevRange) -> tuple:
    """The tile edge in pixels and the tile counts across and down."""
    ts = RasterSettings.tile_size
    return ts, (bev.w + ts - 1) // ts, (bev.h + ts - 1) // ts


def _bin(mean2d, inv, opacity, bev: BevRange, settings: RasterSettings,
         mem_cap: int = DEFAULT_MEM_CAP):
    """Bin blend-sorted splats into every tile where their alpha can reach
    ``alpha_min``.  Returns ``rows``, the non-empty tiles ascending and
    their ``starts``: tile ``tiles[j]`` gets ``rows[starts[j]:starts[j + 1]]``,
    ascending, so the arrays are sized by the hits, not by the tile count.
    Splats must be Gaussians: :class:`SingularCovariance` unless each inverse
    (ia, ib, ic), which alone spans, tests and blends it, has ``ia > 0`` and
    ``ia ic - ib^2 > 0``.  (Splat, tile) candidates are spread and tested in
    blocks of ``min(mem_cap, BLOCK_BYTES) // BIN_CANDIDATE_BYTES``."""
    ts, ntx, nty = _tile_grid(bev)
    (mx, my), (ia, ib, ic) = mean2d.T, inv.T
    with np.errstate(over="ignore", invalid="ignore"):
        det = ia * ic - ib * ib
        bad = ~((ia > 0) & (det > 0))  # NaN fails
        if np.any(bad):
            raise SingularCovariance(f"{np.count_nonzero(bad)} splats have a diagonal or the "
                                     f"determinant of the inverse not > 0, the first {inv[bad][0]}")
        k2 = 2.0 * np.log(np.maximum(opacity, settings.alpha_min) / settings.alpha_min)
        # alpha >= alpha_min exactly where q = d^T inv d <= k2.  As inv is positive definite,
        # q >= u^2 / Sxx and q >= v^2 / Syy for Sxx = ic / det, Syy = ia / det, so past the span
        # of q <= k2 (1 + 2e-9) + 1e-9, q tops k2 plus the exact test's margin, 1e-12 (1 + k2 +
        # ia u^2 + ic v^2) <= 1e-12 (1 + k2 + q / (1 - r)), while r = |ib| / sqrt(ia ic) < 0.999:
        # then ia ic / det = 1 / (1 - r^2) < 501, which keeps det's rounding error far inside
        # the 2e-9 slack.  The half pixel to the next pixel centre adds 1 / (4 Sxx).
        rx, ry = (np.sqrt((k2 * (1 + 2e-9) + 1e-9) * v / det) for v in (ic, ia))
        # written so that NaN fails: the culls come before any int conversion
        keep = (opacity >= settings.alpha_min) & (mx + rx >= 0) & (my + ry >= 0)
        idx = np.flatnonzero(keep & (mx - rx < bev.w) & (my - ry < bev.h))
        mx, my, rx, ry, inv, k2 = mx[idx], my[idx], rx[idx], ry[idx], inv[idx], k2[idx]
        tx0, tx1, ty0, ty1 = (
            np.clip(np.floor(v / ts), 0, n - 1).astype(np.int64)
            for v, n in ((mx - rx, ntx), (mx + rx, ntx), (my - ry, nty), (my + ry, nty))
        )
        # candidates: every tile in the span, numbered splat by splat, spread in blocks
        nx = tx1 - tx0 + 1
        counts = nx * (ty1 - ty0 + 1)
        ends = np.cumsum(counts)
        first = ends - counts
        total = int(ends[-1]) if ends.size else 0
        block = min(mem_cap, BLOCK_BYTES) // BIN_CANDIDATE_BYTES
        if total and block < 1:
            raise AllocationLimit(f"one of {total} (splat, tile) candidates needs "
                                  f"{BIN_CANDIDATE_BYTES} bytes, cap is {mem_cap}")
        hits, tiles = [], []
        for c0 in range(0, total, max(block, 1)):
            # candidates [c0, c1): from inside splat s0 to inside splat s1
            c1 = min(c0 + block, total)
            s0, s1 = np.searchsorted(ends, (c0, c1 - 1), "right").tolist()
            span = slice(s0, s1 + 1)
            pair = np.repeat(np.arange(s0, s1 + 1),
                             np.minimum(ends[span], c1) - np.maximum(first[span], c0))
            j = np.arange(c0, c1) - first[pair]
            ty, tx = ty0[pair] + j // nx[pair], tx0[pair] + j % nx[pair]
            # the tile's pixel centres lie at offsets [u0, u1] x [v0, v1] from the mean
            u0, u1 = (tx * ts + 0.5) - mx[pair], (np.minimum(tx * ts + ts, bev.w) - 0.5) - mx[pair]
            v0, v1 = (ty * ts + 0.5) - my[pair], (np.minimum(ty * ts + ts, bev.h) - 0.5) - my[pair]
            (ia, ib, ic), kk = inv[pair].T, k2[pair]
            # the minimum over the rectangle is at most 0 with the mean inside,
            # else the least of the four edges' clamped minima; the margin
            # covers float64 rounding here and in the blend.  NaN keeps a pair.
            u = np.array([u0, u1, np.clip(-(ib * v0) / ia, u0, u1),
                          np.clip(-(ib * v1) / ia, u0, u1)])
            v = np.array([np.clip(-(ib * u0) / ic, v0, v1), np.clip(-(ib * u1) / ic, v0, v1),
                          v0, v1])
            qmin = ((ia * u) * u + 2.0 * ib * (u * v) + (ic * v) * v).min(axis=0)
            qmin[(u0 <= 0) & (u1 >= 0) & (v0 <= 0) & (v1 >= 0)] = 0.0
            margin = 1e-12 * (1 + kk + ia * np.maximum(u0 * u0, u1 * u1)
                              + ic * np.maximum(v0 * v0, v1 * v1))
            hit = ~(qmin > kk + margin)
            hits.append(pair[hit])
            tiles.append((ty * ntx + tx)[hit])
    pair = np.concatenate([np.zeros(0, dtype=np.int64), *hits])
    tile = np.concatenate([np.zeros(0, dtype=np.int64), *tiles])
    del hits, tiles
    order = np.argsort(tile, kind="stable")
    tile = tile[order]
    starts = np.flatnonzero(np.diff(tile, prepend=-1))  # the first hit of each tile
    return idx[pair[order]], tile[starts], np.append(starts, len(tile))


def build_tile_grid(sorted_splats: list, bev: BevRange, settings: RasterSettings) -> TileGrid:
    """Bin blend-sorted splats into every tile where their alpha can reach
    ``alpha_min``; splats below it or wholly off the map are binned nowhere."""
    rows, tiles, starts = _bin(*_splat_arrays(sorted_splats), bev, settings)
    ts, ntx, nty = _tile_grid(bev)
    lists = [[] for _ in range(ntx * nty)]
    for j, t in enumerate(tiles.tolist()):
        lists[t] = rows[starts[j]:starts[j + 1]].tolist()
    return TileGrid(ts, ntx, nty, tuple(lists))


def _blend_sum(feats: Array, weights: Array) -> Array:
    """``einsum("kc,kp->cp")`` adding the rows in order; at C = P = 1 einsum
    would run a reordering SIMD dot product, so a zero column is added."""
    if feats.shape[1] == weights.shape[1] == 1:
        return np.einsum("kc,kp->cp", feats, np.pad(weights, ((0, 0), (0, 1))))[:, :1]
    return np.einsum("kc,kp->cp", feats, weights)


def _blend_pixels(idx, ys, xs, mean2d, inv, opacity, feats32, settings, bufs) -> Array | None:
    """Sum (C, len(ys) * len(xs)) of the rows ``idx`` (in blend order) at the
    pixels ``ys`` x ``xs``, or None where no row is used at any of them;
    ``bufs`` hold K x pixels entries each."""
    k, n = len(idx), len(ys) * len(xs)
    q, use, w32, t_after = (buf[:k * n].reshape(k, n) for buf in bufs)
    dx = (xs + 0.5) - mean2d[idx, 0:1]  # (K, w)
    dy = (ys + 0.5) - mean2d[idx, 1:2]  # (K, h)
    ia, ib, ic = inv[idx].T[:, :, None]
    # -0.5 q for q = ia*dx*dx + 2*ib*(dx*dy) + ic*dy*dy summed in that
    # order: scaling each term by a power of two rounds identically
    q = np.multiply(dy[:, :, None], dx[:, None, :], out=q.reshape(k, len(ys), -1))
    q *= (-ib)[:, :, None]
    q += (-0.5 * ((ia * dx) * dx))[:, None, :]
    q += (-0.5 * ((ic * dy) * dy))[:, :, None]
    alpha = np.exp(q, out=q).reshape(k, n)
    alpha *= opacity[idx, None]
    np.minimum(alpha, settings.alpha_max, out=alpha)
    np.greater_equal(alpha, settings.alpha_min, out=use)
    w32.fill(0.0)
    np.copyto(w32, alpha, casting="same_kind", where=use)
    np.subtract(np.float32(1.0), w32, out=t_after)
    np.cumprod(t_after, axis=0, out=t_after)  # T after each row
    # T never increases and stays in [0, 1]: the early stop, a no-op at t_min <= 0
    use &= t_after >= np.float32(max(settings.t_min, 0.0))
    w32[1:] *= t_after[:-1]  # alpha * T before the splat
    w32 *= use
    # Rows unused at every pixel multiply T by exactly 1 and add f * +0 to
    # a float32 sum that starts at +0, so dropping them changes no bit.
    live = np.flatnonzero(use.any(axis=1))
    if not live.size:  # the sum would be +0 at every pixel
        return None
    return _blend_sum(feats32[idx[live]], w32[live])


def _worker_count(tiles: int, deepest: int, mem_cap: int) -> int:
    """Compositing workers: the CPUs this process may run on, at most
    :data:`MAX_WORKERS` and ``tiles``, and as many as leave each worker's
    share of ``mem_cap`` a whole :data:`BLOCK_BYTES` block and one pixel's
    buffers of a ``deepest``-row tile.  Below a block, groups are so small
    that two workers spend more on the interpreter lock than they gain:
    a dense ``tj4d`` frame composited in 2.1 s on two against 0.9 s on one
    at a 16 KiB cap, and in 0.94 s against 0.32 s at 64 KiB."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    share = max(BLOCK_BYTES, BLEND_ENTRY_BYTES * deepest)
    # mem_cap // w >= share exactly where w <= mem_cap // share
    return max(min(cpus, MAX_WORKERS, tiles, mem_cap // share), 1)


def _composite(mean2d, inv, opacity, features, bev, settings,
               mem_cap: int = DEFAULT_MEM_CAP) -> BevFeatureMap:
    """Bin and blend the arrays :func:`rasterize_oracle` takes (float32 accumulation).
    Workers take the non-empty tiles from one queue, deepest first, and
    blend each in pixel groups, whole rows or part of one row, whose
    buffers of :data:`BLEND_ENTRY_BYTES` a (splat, pixel) fit
    ``min(mem_cap // workers, BLOCK_BYTES)``, and one pixel at least;
    ``mem_cap`` must hold one pixel's buffers in the deepest tile.  A
    group writes only its lit rows, so only pages holding a value become
    resident."""
    out = _zero_map(features.shape[1], bev)
    rows, tiles, starts = _bin(mean2d, inv, opacity, bev, settings, mem_cap)
    feats32 = features.astype(np.float32, copy=False)
    ts, ntx, _ = _tile_grid(bev)
    depth = np.diff(starts)
    deepest = int(depth.max(initial=0))
    if BLEND_ENTRY_BYTES * deepest > mem_cap:
        raise AllocationLimit(f"one pixel's blend buffers in a tile of {deepest} splats need "
                              f"{BLEND_ENTRY_BYTES * deepest} bytes, cap is {mem_cap}")
    workers = _worker_count(len(tiles), deepest, mem_cap)
    block = min(mem_cap // workers, BLOCK_BYTES) // BLEND_ENTRY_BYTES
    # a group's K x pixels entries: at most the block, or K at one pixel,
    # and no more than a whole tile
    size = min(max(block, deepest), deepest * min(ts, bev.h) * min(ts, bev.w))
    # popped from the end: the deepest tile first, so no worker is left
    # with a deep tile when the others run out
    queue = np.argsort(depth, kind="stable").tolist()
    lock = threading.Lock()
    failed = []

    def blend_tile(j, bufs):
        idx = rows[starts[j]:starts[j + 1]]
        ty, tx = divmod(int(tiles[j]), ntx)
        r0, r1 = ty * ts, min((ty + 1) * ts, bev.h)
        c0, c1 = tx * ts, min((tx + 1) * ts, bev.w)
        # groups of up to block // K pixels: whole rows, else part of one row
        px = max(block // len(idx), 1)
        nrow, ncol = max(px // (c1 - c0), 1), min(px, c1 - c0)
        for g0 in range(r0, r1, nrow):
            g1 = min(g0 + nrow, r1)
            for h0 in range(c0, c1, ncol):
                h1 = min(h0 + ncol, c1)
                acc = _blend_pixels(idx, np.arange(g0, g1), np.arange(h0, h1), mean2d, inv,
                                    opacity, feats32, settings, bufs)
                if acc is None:
                    continue
                a, b = 0, g1 - g0
                if b > 1:  # from the first row with a nonzero byte to the last
                    lit = np.flatnonzero(acc.view(np.uint32).any(axis=0).reshape(b, -1)
                                         .any(axis=1))
                    a, b = (lit[0], lit[-1] + 1) if lit.size else (0, 0)
                out[:, g0 + a:g0 + b, h0:h1] = acc.reshape(-1, g1 - g0, h1 - h0)[:, a:b]

    def work():
        try:
            bufs = (np.empty(size), np.empty(size, dtype=bool),
                    np.empty(size, dtype=np.float32), np.empty(size, dtype=np.float32))
            while True:
                with lock:
                    if failed or not queue:
                        return
                    j = queue.pop()
                blend_tile(j, bufs)
        except BaseException as exc:  # re-raised by the caller once all have joined
            with lock:
                failed.append(exc)

    # each worker runs in a copy of the caller's context, which holds
    # np.errstate: without it a worker would warn where encode raises
    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            thread.start()
            started.append(thread)
        work()
    finally:
        for thread in started:
            thread.join()
    if failed:
        raise failed[0]
    _fill_holes(out)
    return BevFeatureMap(out, bev)


def rasterize(
    splats: list,
    bev: BevRange,
    channels: int | None = None,
    settings: RasterSettings | None = None,
    threads: int = 1,
) -> BevFeatureMap:
    """Tile-based alpha-blended rasterization of a list of splats, by the
    kernels of :func:`encode`.  ``threads`` is accepted and ignored: the
    compositing workers follow the CPUs the process may run on, and the
    map does not depend on their number.  Splats are drawn by ``cov2d_inv``
    alone and refused as :func:`_bin` says, or where a field is misshapen."""
    settings = settings or RasterSettings()
    if channels is None and not splats:
        raise InvalidSpec("channel count required when rasterizing no splats")
    order = sort_splats(splats, settings.blend_order)
    features = _columns(order, "features", np.size(splats[0].features) if channels is None
                        else int(channels))
    return _composite(*_splat_arrays(order), features, bev, settings)


def rasterize_oracle(mean2d, inv, opacity, features, bev: BevRange,
                     settings: RasterSettings | None = None) -> BevFeatureMap:
    """Brute-force reference: splats given in blend order as :func:`_composite`
    takes them (means (N, 2), inverses (N, 3) as (a, b, c), opacities (N,)
    and features (N, C)), each evaluated at every pixel in float64, same
    clamp and skip threshold, no tiles, no early stop."""
    settings = settings or RasterSettings()
    acc = np.zeros((features.shape[1], bev.h, bev.w))
    transmit = np.ones((bev.h, bev.w))
    xg = (np.arange(bev.w) + 0.5)[None, :]
    yg = (np.arange(bev.h) + 0.5)[:, None]
    for (mx, my), (ia, ib, ic), o, f in zip(mean2d, inv, opacity, features, strict=True):
        dx = xg - mx
        dy = yg - my
        with np.errstate(over="ignore", invalid="ignore"):  # far off the map q is inf or NaN
            q = ia * dx * dx + 2.0 * ib * (dx * dy) + ic * dy * dy
            alpha = np.minimum(o * np.exp(-0.5 * q), settings.alpha_max)
        use = alpha >= settings.alpha_min
        weight = np.where(use, alpha * transmit, 0.0)
        acc += f[:, None, None] * weight
        transmit = np.where(use, transmit * (1.0 - alpha), transmit)
    return BevFeatureMap(acc.astype(np.float32), bev)


def encode(
    cloud: PointCloud,
    params: PgeParams,
    bev: BevRange,
    settings: RasterSettings | None = None,
    threads: int = 1,
    mem_cap: int = DEFAULT_MEM_CAP,
) -> BevFeatureMap:
    """Full encoder: local + global aggregation, attribute prediction,
    projection, and tiled rasterization.  ``threads`` is accepted and
    ignored: the compositing workers follow the CPUs the process may run on,
    and the map does not depend on their number.  ``mem_cap`` bounds the
    neighbour pairs, the attention score block, binning's (splat, tile)
    candidates tested at once and the sum of every worker's per-pixel blend
    buffers, but not the attention's (N, 2c) FFN arrays, the (splat, tile)
    hits binning keeps or the time: at 4 MiB, 2 500 points in 5 clusters on
    the ``tj4d`` map keep 409 k hits (18.0 MB traced, 7.1 s) at ``s_min`` 5
    and 2.09 M (85.3 MB, 91 s) at 50.  An unexpected overflow raises InvalidSpec, and a
    projected ``cov2d`` whose determinant is not > ``DET_EPS`` SingularCovariance."""
    settings = settings or RasterSettings()
    # raw features past ~1e154 square to inf in the layer norms and would
    # end in a NaN map or an unrelated error; where a stage expects an
    # overflow (huge coordinates) it ignores it locally
    try:
        with np.errstate(over="raise", invalid="raise"):
            f_lfa = lfa_index_scatter(cloud, params.lfa, params.r, mem_cap)
            f_gfa = gfa(cloud, params.attn, mem_cap)
            scales, quats, feats = predict_attribute_arrays(cloud, f_lfa, f_gfa, params.head,
                                                            params.s_min)
            del f_lfa, f_gfa
            pos = cloud.positions
            mean2d, _, inv = _project(pos, scales, quats, bev, settings.lambda_blur)
            del scales, quats
            o = _blend_order(pos[:, 2], np.arange(len(cloud)), settings.blend_order)
            # feats is a view of the head's output: once it is sorted, that
            # output is freed and only blend-ordered arrays stay
            mean2d, inv, feats = mean2d[o], inv[o], feats[o].astype(np.float32)
            return _composite(mean2d, inv, np.ones(len(cloud)), feats, bev, settings, mem_cap)
    except FloatingPointError as exc:
        raise InvalidSpec(f"encoding overflows float64 ({exc})") from None


def pillar_scatter(cloud: PointCloud, bev: BevRange) -> BevFeatureMap:
    """Baseline that sums each point's raw features into exactly one pixel
    (points outside the range are dropped; boundary points are inside).  A
    sum past float32 raises :class:`InvalidSpec`."""
    x, y = cloud.positions[:, :2].T
    inside = (x >= bev.x_min) & (x <= bev.x_max) & (y >= bev.y_min) & (y <= bev.y_max)
    cols = np.clip(((x[inside] - bev.x_min) * bev.px_per_m_x).astype(np.int64), 0, bev.w - 1)
    rows = np.clip(((y[inside] - bev.y_min) * bev.px_per_m_y).astype(np.int64), 0, bev.h - 1)
    flat = rows * bev.w + cols
    feats = cloud.features[inside]
    data = _zero_map(cloud.c_raw, bev)
    for ch, plane in enumerate(data.reshape(cloud.c_raw, bev.h * bev.w)):
        with np.errstate(over="ignore"):  # a sum past float32 casts to inf, refused below
            plane[:] = np.bincount(flat, weights=feats[:, ch], minlength=plane.size)
        if not np.isfinite(plane).all():
            raise InvalidSpec(f"pillar sums of channel {ch} overflow float32")
    return BevFeatureMap(data, bev)


def nonzero_pixels(fmap: BevFeatureMap) -> int:
    """Number of pixels with a nonzero value (NaN included) in any channel,
    reduced over channels without a C x H x W temporary."""
    return int(np.count_nonzero(np.any(fmap.data, axis=0)))


def write_feature_map(fmap: BevFeatureMap, path) -> None:
    """Write an ``RGFM`` file."""
    bev = fmap.bev
    with open(path, "wb") as fh:
        fh.write(_MAGIC + _HEADER.pack(_VERSION, fmap.channels, bev.h, bev.w, bev.x_min,
                                       bev.x_max, bev.y_min, bev.y_max))
        # straight from the array's buffer, no bytes copy of the payload
        np.ascontiguousarray(fmap.data, dtype="<f4").tofile(fh)


def read_feature_map(path) -> BevFeatureMap:
    """Read an ``RGFM`` file written by :func:`write_feature_map`.

    The payload is read straight into the map, after its size is checked
    against the file's, so reading holds the map once.
    """
    with open(path, "rb") as fh:
        head = fh.read(4 + _HEADER.size)
        if head[:4] != _MAGIC:
            raise FormatError("not an RGFM feature-map file (bad magic)")
        if len(head) < 4 + _HEADER.size:
            raise FormatError("RGFM file truncated inside the header")
        version, c, h, w, x_min, x_max, y_min, y_max = _HEADER.unpack_from(head, 4)
        if version != _VERSION:
            raise FormatError(f"unsupported RGFM version {version}")
        payload = os.fstat(fh.fileno()).st_size - len(head)
        if payload != 4 * c * h * w:
            raise FormatError(f"RGFM payload is {payload} bytes, expected {4 * c * h * w}")
        bev = BevRange(x_min, x_max, y_min, y_max, h, w)
        # with C = 0 the payload does not bound H x W
        if 4 * h * w > np.iinfo(np.intp).max:
            raise FormatError(f"an RGFM plane of {h} x {w} float32 values is too large for an array")
        data = np.empty((c, h, w), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise FormatError("RGFM file truncated inside the payload")
    return BevFeatureMap(data, bev)


def write_pgm(fmap: BevFeatureMap, channel: int, path) -> None:
    """Export one channel as a binary 8-bit PGM, min-max normalized."""
    if not 0 <= channel < fmap.channels:
        raise InvalidSpec(f"channel {channel} out of range 0..{fmap.channels - 1}")
    plane = fmap.data[channel].astype(np.float64)
    if not np.isfinite(plane).all():  # no min-max scale; NaN would write all black
        raise InvalidSpec(f"channel {channel} holds a non-finite value")
    lo, hi = plane.min(), plane.max()
    if hi > lo:
        img = np.clip(np.rint((plane - lo) / (hi - lo) * 255.0), 0, 255)
    else:
        img = np.zeros_like(plane)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{fmap.bev.w} {fmap.bev.h}\n255\n".encode("ascii"))
        fh.write(img.astype(np.uint8).tobytes())
