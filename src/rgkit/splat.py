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
(default 0.3 px^2) keeps ``cov2d`` invertible and every footprint at
least a pixel wide.

Rasterization composites splats in ascending blend-key order
(configurable: ascending z, descending z, or input order; ties always
broken by source index).  At each pixel::

    alpha_i = clamp(o_i * exp(-0.5 * d^T cov2d_inv d), 0, alpha_max)

splats with ``alpha < alpha_min`` are skipped, the rest accumulate
``F[p] += f_i * alpha_i * T_i``, ``T_i`` being the product of ``1 - alpha``
over the splats used before ``i``; once ``T`` would drop below ``t_min``
the pixel stops early, without that splat (``t_min <= 0`` disables this).

Splats are binned to every tile their coverage disc touches; the radius
``sqrt(max_eigenvalue(cov2d)) * max(3, sqrt(2 ln(opacity / alpha_min)))``
makes binning lossless (any pixel outside the disc fails ``alpha_min``),
so tiles match the brute force (:func:`rasterize_oracle`) up to 32- vs
64-bit rounding.  A disc wholly off the map is binned nowhere.  Each tile
is composited front to back with whole-tile array operations, as in 3D
Gaussian Splatting (Kerbl et al., 2023): a (K splats, P pixels) float64
alpha block, a float32 ``cumprod`` of ``1 - alpha`` for T, the early stop
as the mask ``T_after >= t_min`` (T never increases), and one ``einsum``
over K.  NumPy's einsum adds the K terms in order in float32 without
BLAS, so unlike a matmul the map does not depend on BLAS threading.
Tiles share no pixels and run one after another: maps are bit-identical
across runs.

Feature-map files use the ``RGFM`` format: magic, u32 version (=1),
u32 C, u32 H, u32 W, the four range extents as little-endian float64,
then ``C*H*W`` little-endian float32 values, channel-major, row-major
within a channel.  A single channel can also be exported as a binary
8-bit PGM (min-max normalized) for visual inspection.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .aggregation import GaussianPrimitive3D, PgeParams, gfa, lfa_index_scatter, predict_attributes
from .errors import FormatError, InvalidSpec, ShapeMismatch, SingularCovariance, SingularMatrix
from .geom import covariance_from_scale_rot, mat2_inverse, quat_normalize, quat_to_rotmat
from .pointcloud import BevRange, PointCloud

Array = np.ndarray

BLEND_ORDERS = ("z-asc", "z-desc", "index")

_MAGIC = b"RGFM"
_VERSION = 1
_HEADER = struct.Struct("<IIII4d")  # version, C, H, W, x_min, x_max, y_min, y_max


@dataclass(frozen=True)
class RasterSettings:
    """Thresholds and scheduling knobs of the rasterizer."""

    alpha_max: float = 0.99
    alpha_min: float = 1.0 / 255.0
    t_min: float = 1e-4
    lambda_blur: float = 0.3
    tile_size: int = 16
    blend_order: str = "z-asc"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_max <= 1.0:
            raise InvalidSpec(f"alpha_max must be in (0, 1], got {self.alpha_max}")
        if not 0.0 < self.alpha_min < 1.0:
            raise InvalidSpec(
                f"alpha_min must be in (0, 1) so footprints are finite, "
                f"got {self.alpha_min}"
            )
        if self.lambda_blur < 0:
            raise InvalidSpec(f"lambda_blur must be >= 0, got {self.lambda_blur}")
        if self.tile_size < 1:
            raise InvalidSpec(f"tile_size must be >= 1, got {self.tile_size}")
        if self.blend_order not in BLEND_ORDERS:
            raise InvalidSpec(
                f"blend_order must be one of {BLEND_ORDERS}, got {self.blend_order!r}"
            )


@dataclass(frozen=True)
class Splat2D:
    """Screen-space Gaussian: pixel-space mean and covariance (with its
    inverse), features, opacity, and the (z, source index) blend key."""

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


def project_to_bev(
    g: GaussianPrimitive3D,
    bev: BevRange,
    lambda_blur: float = 0.3,
    source_index: int = 0,
) -> Splat2D:
    """Project one 3D Gaussian onto the BEV pixel plane."""
    sx = bev.px_per_m_x
    sy = bev.px_per_m_y
    # a huge finite mean may overflow to inf; binning culls it as off-map
    with np.errstate(over="ignore"):
        mean2d = np.array([(g.mean[0] - bev.x_min) * sx, (g.mean[1] - bev.y_min) * sy])
    rot = quat_to_rotmat(quat_normalize(g.quat))
    sigma = covariance_from_scale_rot(g.scales, rot)
    m = np.array([[sx, 0.0, 0.0], [0.0, sy, 0.0]])
    cov2d = m @ sigma @ m.T + lambda_blur * np.eye(2)
    try:
        cov2d_inv = mat2_inverse(cov2d)
    except SingularMatrix as exc:
        raise SingularCovariance(f"projected covariance not invertible: {exc}") from None
    return Splat2D(
        mean2d=mean2d,
        cov2d=cov2d,
        cov2d_inv=cov2d_inv,
        features=np.asarray(g.features, dtype=np.float64),
        opacity=float(g.opacity),
        blend_key=(float(g.mean[2]), int(source_index)),
    )


def sort_splats(splats: list, blend_order: str = "z-asc") -> list:
    """Order splats for compositing; ties always fall back to source index."""
    if blend_order == "z-asc":
        return sorted(splats, key=lambda s: (s.blend_key[0], s.blend_key[1]))
    if blend_order == "z-desc":
        return sorted(splats, key=lambda s: (-s.blend_key[0], s.blend_key[1]))
    if blend_order == "index":
        return sorted(splats, key=lambda s: s.blend_key[1])
    raise InvalidSpec(f"blend_order must be one of {BLEND_ORDERS}, got {blend_order!r}")


def _coverage_radius(splat: Splat2D, alpha_min: float) -> float:
    """Pixel radius beyond which this splat cannot pass the alpha_min test,
    never smaller than three standard deviations along the widest axis."""
    a = splat.cov2d[0, 0]
    b = splat.cov2d[0, 1]
    c = splat.cov2d[1, 1]
    mid = 0.5 * (a + c)
    det = a * c - b * b
    lam_max = mid + math.sqrt(max(mid * mid - det, 0.0))
    k = 3.0
    if splat.opacity > alpha_min:
        k = max(3.0, math.sqrt(2.0 * math.log(splat.opacity / alpha_min)))
    return k * math.sqrt(max(lam_max, 0.0))


def build_tile_grid(sorted_splats: list, bev: BevRange, settings: RasterSettings) -> TileGrid:
    """Bin blend-sorted splats into every tile their coverage disc touches.

    Splats whose opacity already sits below ``alpha_min`` can never pass
    the skip test, and splats whose disc lies wholly off the map cover no
    pixel; both are binned nowhere.  The off-map test comes before any
    conversion to ``int``, so huge or infinite means are culled, not
    overflowed.
    """
    ts = settings.tile_size
    ntx = (bev.w + ts - 1) // ts
    nty = (bev.h + ts - 1) // ts
    tiles: list[list[int]] = [[] for _ in range(ntx * nty)]
    for i, s in enumerate(sorted_splats):
        if s.opacity < settings.alpha_min:
            continue
        radius = _coverage_radius(s, settings.alpha_min)
        mx, my = s.mean2d
        if mx + radius < 0 or my + radius < 0 or mx - radius >= bev.w or my - radius >= bev.h:
            continue
        tx0 = max(int(math.floor((mx - radius) / ts)), 0)
        tx1 = min(int(math.floor((mx + radius) / ts)), ntx - 1)
        ty0 = max(int(math.floor((my - radius) / ts)), 0)
        ty1 = min(int(math.floor((my + radius) / ts)), nty - 1)
        for ty in range(ty0, ty1 + 1):
            for tx in range(tx0, tx1 + 1):
                tiles[ty * ntx + tx].append(i)
    return TileGrid(tile_size=ts, n_tiles_x=ntx, n_tiles_y=nty, tiles=tuple(tiles))


def _check_splats(splats: list, channels) -> int:
    widths = {s.features.shape[0] for s in splats}
    if len(widths) > 1:
        raise ShapeMismatch(f"splats disagree on feature length: {sorted(widths)}")
    if channels is None:
        if not widths:
            raise InvalidSpec("channel count required when rasterizing no splats")
        return widths.pop()
    channels = int(channels)
    if widths and widths != {channels}:
        raise ShapeMismatch(f"splat features have {widths.pop()} channels, expected {channels}")
    return channels


def rasterize(
    splats: list,
    bev: BevRange,
    channels: int | None = None,
    settings: RasterSettings | None = None,
    threads: int = 1,
) -> BevFeatureMap:
    """Tile-based alpha-blended rasterization (float32 accumulation): per
    tile a (K, P) alpha block, a ``cumprod`` transmittance masked at
    ``t_min`` and a fixed-order ``einsum`` over the K splats, not a BLAS
    matmul, whose sum order follows its thread count.  Tiles are blended
    one after another; ``threads`` is accepted and ignored.
    """
    settings = settings or RasterSettings()
    channels = _check_splats(splats, channels)
    out = np.zeros((channels, bev.h, bev.w), dtype=np.float32)
    order = sort_splats(splats, settings.blend_order)
    grid = build_tile_grid(order, bev, settings)
    if not any(grid.tiles):
        return BevFeatureMap(out, bev)

    means = np.array([s.mean2d for s in order])
    invs = np.array([[s.cov2d_inv[0, 0], s.cov2d_inv[0, 1], s.cov2d_inv[1, 1]] for s in order])
    opac = np.array([s.opacity for s in order])
    feats32 = np.array([s.features for s in order], dtype=np.float32)
    ts = settings.tile_size

    for tile_index, idxs in enumerate(grid.tiles):
        if not idxs:
            continue
        idx = np.array(idxs)
        ty, tx = divmod(tile_index, grid.n_tiles_x)
        r0, r1 = ty * ts, min((ty + 1) * ts, bev.h)
        c0, c1 = tx * ts, min((tx + 1) * ts, bev.w)
        # (K, P): one row per binned splat, one column per pixel (row-major)
        px = np.tile(np.arange(c0, c1) + 0.5, r1 - r0)
        py = np.repeat(np.arange(r0, r1) + 0.5, c1 - c0)
        dx = px - means[idx, 0:1]
        dy = py - means[idx, 1:2]
        ia, ib, ic = invs[idx].T[:, :, None]
        q = ia * dx * dx + 2.0 * ib * (dx * dy) + ic * dy * dy
        alpha = np.minimum(opac[idx, None] * np.exp(-0.5 * q), settings.alpha_max)
        use = alpha >= settings.alpha_min
        alpha32 = np.where(use, alpha, 0.0).astype(np.float32)
        t_after = np.cumprod(np.float32(1.0) - alpha32, axis=0)
        if settings.t_min > 0:
            use &= t_after >= settings.t_min
        t_before = np.vstack([np.ones_like(t_after[:1]), t_after[:-1]])
        weight = np.where(use, alpha32 * t_before, np.float32(0.0))
        acc = np.einsum("kc,kp->cp", feats32[idx], weight)
        out[:, r0:r1, c0:c1] = acc.reshape(channels, r1 - r0, c1 - c0)
    return BevFeatureMap(out, bev)


def rasterize_oracle(
    splats: list,
    bev: BevRange,
    channels: int | None = None,
    settings: RasterSettings | None = None,
) -> BevFeatureMap:
    """Brute-force reference: every splat evaluated at every pixel in
    float64, same clamp and skip threshold, no tiles, no early stop."""
    settings = settings or RasterSettings()
    channels = _check_splats(splats, channels)
    acc = np.zeros((channels, bev.h, bev.w))
    transmit = np.ones((bev.h, bev.w))
    xg = (np.arange(bev.w) + 0.5)[None, :]
    yg = (np.arange(bev.h) + 0.5)[:, None]
    for s in sort_splats(splats, settings.blend_order):
        dx = xg - s.mean2d[0]
        dy = yg - s.mean2d[1]
        ia = s.cov2d_inv[0, 0]
        ib = s.cov2d_inv[0, 1]
        ic = s.cov2d_inv[1, 1]
        q = ia * dx * dx + 2.0 * ib * (dx * dy) + ic * dy * dy
        alpha = np.minimum(s.opacity * np.exp(-0.5 * q), settings.alpha_max)
        use = alpha >= settings.alpha_min
        weight = np.where(use, alpha * transmit, 0.0)
        acc += s.features[:, None, None] * weight
        transmit = np.where(use, transmit * (1.0 - alpha), transmit)
    return BevFeatureMap(acc.astype(np.float32), bev)


def encode(
    cloud: PointCloud,
    params: PgeParams,
    bev: BevRange,
    settings: RasterSettings | None = None,
    threads: int = 1,
) -> BevFeatureMap:
    """Full encoder: local + global aggregation, attribute prediction,
    projection, and tiled rasterization; ``threads`` is accepted and ignored."""
    settings = settings or RasterSettings()
    f_lfa = lfa_index_scatter(cloud, params.lfa, params.r)
    f_gfa = gfa(cloud, params.attn)
    prims = predict_attributes(cloud, f_lfa, f_gfa, params.head, params.s_min)
    splats = [
        project_to_bev(g, bev, settings.lambda_blur, i) for i, g in enumerate(prims)
    ]
    return rasterize(splats, bev, params.feature_dim, settings)


def pillar_scatter(cloud: PointCloud, bev: BevRange) -> BevFeatureMap:
    """Baseline that sums each point's raw features into exactly one pixel
    (points outside the range are dropped; boundary points are inside)."""
    pos = cloud.positions
    inside = (
        (pos[:, 0] >= bev.x_min)
        & (pos[:, 0] <= bev.x_max)
        & (pos[:, 1] >= bev.y_min)
        & (pos[:, 1] <= bev.y_max)
    )
    cols = np.clip(
        ((pos[inside, 0] - bev.x_min) * bev.px_per_m_x).astype(np.int64), 0, bev.w - 1
    )
    rows = np.clip(
        ((pos[inside, 1] - bev.y_min) * bev.px_per_m_y).astype(np.int64), 0, bev.h - 1
    )
    flat = rows * bev.w + cols
    feats = cloud.features[inside]
    data = np.zeros((cloud.c_raw, bev.h, bev.w), dtype=np.float32)
    for ch in range(cloud.c_raw):
        data[ch] = (
            np.bincount(flat, weights=feats[:, ch], minlength=bev.h * bev.w)
            .reshape(bev.h, bev.w)
            .astype(np.float32)
        )
    return BevFeatureMap(data, bev)


def nonzero_pixels(fmap: BevFeatureMap) -> int:
    """Number of pixels with a nonzero value in any channel."""
    if fmap.channels == 0:
        return 0
    return int(np.count_nonzero(np.any(fmap.data != 0, axis=0)))


def write_feature_map(fmap: BevFeatureMap, path) -> None:
    """Write an ``RGFM`` file."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            _HEADER.pack(
                _VERSION,
                fmap.channels,
                fmap.bev.h,
                fmap.bev.w,
                fmap.bev.x_min,
                fmap.bev.x_max,
                fmap.bev.y_min,
                fmap.bev.y_max,
            )
        )
        fh.write(np.ascontiguousarray(fmap.data, dtype="<f4").tobytes())


def read_feature_map(path) -> BevFeatureMap:
    """Read an ``RGFM`` file written by :func:`write_feature_map`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError("not an RGFM feature-map file (bad magic)")
    if len(blob) < 4 + _HEADER.size:
        raise FormatError("RGFM file truncated inside the header")
    version, c, h, w, x_min, x_max, y_min, y_max = _HEADER.unpack_from(blob, 4)
    if version != _VERSION:
        raise FormatError(f"unsupported RGFM version {version}")
    payload = len(blob) - 4 - _HEADER.size
    if payload != 4 * c * h * w:
        raise FormatError(f"RGFM payload is {payload} bytes, expected {4 * c * h * w}")
    data = np.frombuffer(blob, dtype="<f4", offset=4 + _HEADER.size).reshape(c, h, w)
    return BevFeatureMap(data.copy(), BevRange(x_min, x_max, y_min, y_max, h, w))


def write_pgm(fmap: BevFeatureMap, channel: int, path) -> None:
    """Export one channel as a binary 8-bit PGM, min-max normalized."""
    if not 0 <= channel < fmap.channels:
        raise InvalidSpec(f"channel {channel} out of range 0..{fmap.channels - 1}")
    plane = fmap.data[channel].astype(np.float64)
    lo = plane.min()
    hi = plane.max()
    if hi > lo:
        img = np.clip(np.rint((plane - lo) / (hi - lo) * 255.0), 0, 255)
    else:
        img = np.zeros_like(plane)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{fmap.bev.w} {fmap.bev.h}\n255\n".encode("ascii"))
        fh.write(img.astype(np.uint8).tobytes())
