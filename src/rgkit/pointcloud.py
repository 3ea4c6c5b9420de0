"""Radar point-cloud data model, deterministic scene synthesis, and file I/O.

A cloud is stored columnar: an ``(N, 3)`` float64 position block plus an
``(N, c_raw)`` float64 feature block.  ``RadarPoint`` is a per-point
convenience view; all numerical kernels consume the arrays directly.
Point order is significant — the point index is the deterministic
tie-break key used by the blending stage downstream.

Scene synthesis draws from a single :class:`~rgkit.rng.SplitMix64` stream
in a documented order (see :func:`generate_scene`), so identical
:class:`SceneSpec` values produce bit-identical clouds on any platform.

File formats
------------
Text: UTF-8 CSV whose first line is ``# c_raw=<k>``, followed by one point
per line ``x,y,z,f0,...,f{k-1}``, each value printed with 17 significant
digits (lossless for float64).

Binary: magic ``RGPC``, u32 version (=1), u32 point count, u32 channel
count, then ``N * (3 + c_raw)`` little-endian float64 values, row-major
per point.  ``read_cloud`` auto-detects the format by the 4-byte magic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import FormatError, InvalidSpec, ShapeMismatch
from .rng import SplitMix64, boxmuller, stream_seed

Array = np.ndarray

_MAGIC = b"RGPC"
_VERSION = 1
_HEADER = struct.Struct("<III")  # version, point count, channel count
_CSV_KEY = "# c_raw="


@dataclass(frozen=True, eq=False)
class RadarPoint:
    """One radar return: 3D position in meters plus raw feature channels."""

    position: Array  # (3,) float64, meters
    raw_features: Array  # (c_raw,) float64, unitless

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadarPoint):
            return NotImplemented
        return np.array_equal(self.position, other.position) and np.array_equal(
            self.raw_features, other.raw_features
        )


class PointCloud:
    """Ordered, immutable collection of radar points with uniform ``c_raw``
    and finite values."""

    __slots__ = ("positions", "features")

    def __init__(self, positions: Array, features: Array) -> None:
        positions = np.array(positions, dtype=np.float64)
        features = np.array(features, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ShapeMismatch(f"positions must be (N, 3), got {positions.shape}")
        if features.ndim != 2:
            raise ShapeMismatch(f"features must be (N, c_raw), got {features.shape}")
        if features.shape[0] != positions.shape[0]:
            raise ShapeMismatch(
                "positions and features disagree on point count: "
                f"{positions.shape[0]} vs {features.shape[0]}"
            )
        if not (np.isfinite(positions).all() and np.isfinite(features).all()):
            raise InvalidSpec("point positions and features must be finite")
        positions.setflags(write=False)
        features.setflags(write=False)
        self.positions = positions
        self.features = features

    @classmethod
    def from_points(cls, points: Sequence[RadarPoint], c_raw: int = 0) -> "PointCloud":
        """Build a cloud from per-point records (``c_raw`` used when empty)."""
        if not points:
            return cls(np.zeros((0, 3)), np.zeros((0, c_raw)))
        widths = {len(p.raw_features) for p in points}
        if len(widths) != 1:
            raise ShapeMismatch(f"points disagree on channel count: {sorted(widths)}")
        return cls(
            np.stack([p.position for p in points]),
            np.stack([p.raw_features for p in points]),
        )

    @property
    def c_raw(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.positions.shape[0]

    def point(self, i: int) -> RadarPoint:
        return RadarPoint(self.positions[i].copy(), self.features[i].copy())

    def __iter__(self) -> Iterator[RadarPoint]:
        return (self.point(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return np.array_equal(self.positions, other.positions) and np.array_equal(
            self.features, other.features
        )

    def __repr__(self) -> str:
        return f"PointCloud(n={len(self)}, c_raw={self.c_raw})"


@dataclass(frozen=True)
class BevRange:
    """Ground-plane extent in meters plus its pixel resolution.

    ``w`` counts columns and spans the x axis; ``h`` counts rows and spans
    the y axis.  Values exactly on the boundary are considered inside.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    h: int
    w: int

    def __post_init__(self) -> None:
        extents = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(math.isfinite(v) for v in extents):
            raise InvalidSpec(f"BEV extents must be finite, got {extents}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise InvalidSpec(f"BEV extents must have positive span, got {extents}")
        if self.h < 1 or self.w < 1:
            raise InvalidSpec(f"BEV resolution must be >= 1, got h={self.h}, w={self.w}")

    @property
    def px_per_m_x(self) -> float:
        """Columns per meter along x."""
        return self.w / (self.x_max - self.x_min)

    @property
    def px_per_m_y(self) -> float:
        """Rows per meter along y."""
        return self.h / (self.y_max - self.y_min)


#: Default desk-scale extent: 51.2 m x 51.2 m at 0.16 m per pixel.
DEFAULT_RANGE = BevRange(x_min=0.0, x_max=51.2, y_min=-25.6, y_max=25.6, h=320, w=320)


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic recipe for a synthetic clustered radar scene."""

    seed: int
    n_points: int
    c_raw: int = 4
    n_clusters: int = 8
    cluster_sigma: float = 1.0
    bev: BevRange = DEFAULT_RANGE
    z_min: float = -3.0
    z_max: float = 2.0

    def __post_init__(self) -> None:
        if self.n_points < 0:
            raise InvalidSpec(f"n_points must be >= 0, got {self.n_points}")
        if self.c_raw < 0:
            raise InvalidSpec(f"c_raw must be >= 0, got {self.c_raw}")
        if self.n_clusters < 1:
            raise InvalidSpec(f"n_clusters must be >= 1, got {self.n_clusters}")
        if not (math.isfinite(self.cluster_sigma) and self.cluster_sigma >= 0):
            raise InvalidSpec(f"cluster_sigma must be >= 0, got {self.cluster_sigma}")
        if not self.z_max > self.z_min:
            raise InvalidSpec(f"need z_max > z_min, got [{self.z_min}, {self.z_max}]")


def generate_scene(spec: SceneSpec) -> PointCloud:
    """Generate the deterministic synthetic cloud described by ``spec``.

    All randomness comes from one stream seeded with
    ``stream_seed(spec.seed, "scene")``.  The draw order below is part of
    the reproducibility contract (identical spec => bit-identical cloud):

    1. ``3 * n_clusters`` uniforms — cluster centers, one (x, y, z) triple
       per cluster, each coordinate mapped to its axis range via
       ``lo + u * (hi - lo)``.
    2. ``n_points * (7 + c_raw)`` uniforms, consumed row-wise per point:

       * draw 0: cluster pick ``min(floor(u * n_clusters), n_clusters - 1)``;
       * draws 1-6: three Box-Muller normals from the pairs (1,2), (3,4),
         (5,6), scaled by ``cluster_sigma`` and added to the picked center;
       * draws 7 onward: ``c_raw`` feature channels mapped to [-1, 1) via
         ``2u - 1``.

    Positions are finally clamped per axis into the x/y/z ranges; boundary
    values count as inside.
    """
    stream = SplitMix64(stream_seed(spec.seed, "scene"))
    lo = np.array([spec.bev.x_min, spec.bev.y_min, spec.z_min])
    hi = np.array([spec.bev.x_max, spec.bev.y_max, spec.z_max])
    centers = stream.uniforms(3 * spec.n_clusters).reshape(spec.n_clusters, 3)
    centers = lo + centers * (hi - lo)

    n = spec.n_points
    u = stream.uniforms(n * (7 + spec.c_raw)).reshape(n, 7 + spec.c_raw)
    pick = np.minimum(
        (u[:, 0] * spec.n_clusters).astype(np.int64), spec.n_clusters - 1
    )
    offsets = spec.cluster_sigma * boxmuller(u[:, [1, 3, 5]], u[:, [2, 4, 6]])
    positions = np.clip(centers[pick] + offsets, lo, hi)
    features = 2.0 * u[:, 7:] - 1.0
    return PointCloud(positions, features)


def write_cloud(cloud: PointCloud, path, binary: bool = False) -> None:
    """Write ``cloud`` to ``path`` — text CSV by default, ``RGPC`` binary."""
    data = np.hstack([cloud.positions, cloud.features])
    if binary:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_HEADER.pack(_VERSION, len(cloud), cloud.c_raw))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_CSV_KEY}{cloud.c_raw}\n")
        for row in data:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def read_cloud(path) -> PointCloud:
    """Read a cloud written by :func:`write_cloud`, auto-detecting the format."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == _MAGIC:
        return _parse_binary(blob)
    return _parse_text(blob)


def _parse_binary(blob: bytes) -> PointCloud:
    if len(blob) < 4 + _HEADER.size:
        raise FormatError("RGPC file truncated inside the header")
    version, n, c_raw = _HEADER.unpack_from(blob, 4)
    if version != _VERSION:
        raise FormatError(f"unsupported RGPC version {version}")
    payload = len(blob) - 4 - _HEADER.size
    expected = 8 * n * (3 + c_raw)
    if payload != expected:
        raise FormatError(f"RGPC payload is {payload} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=4 + _HEADER.size)
    data = data.reshape(n, 3 + c_raw)
    return PointCloud(data[:, :3], data[:, 3:])


def _parse_text(blob: bytes) -> PointCloud:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"cloud file is neither RGPC nor UTF-8 text: {exc}") from None
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_CSV_KEY):
        raise FormatError(f"first line must be '{_CSV_KEY}<k>'")
    try:
        c_raw = int(lines[0][len(_CSV_KEY):])
    except ValueError:
        raise FormatError(f"bad channel count in header line {lines[0]!r}") from None
    if c_raw < 0:
        raise FormatError(f"channel count must be >= 0, got {c_raw}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + c_raw:
            raise FormatError(
                f"line {lineno}: expected {3 + c_raw} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric value") from None
    data = np.array(rows, dtype=np.float64).reshape(len(rows), 3 + c_raw)
    return PointCloud(data[:, :3], data[:, 3:])
