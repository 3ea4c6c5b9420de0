"""Projection, tile rasterizer vs. brute force, analytic blending values,
pillar baseline, encoder determinism, and map file formats."""

import math
import mmap
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rgkit
from rgkit.aggregation import (
    GaussianPrimitive3D,
    gfa,
    init_weights,
    lfa_index_scatter,
    softplus,
)
from rgkit.config import DEFAULT_MEM_CAP
from rgkit.errors import (
    AllocationLimit,
    FormatError,
    InvalidSpec,
    ShapeMismatch,
    SingularCovariance,
)
from rgkit.geom import covariance_from_scale_rot, quat_normalize, quat_to_rotmat
from rgkit.pointcloud import BevRange, PointCloud, SceneSpec, generate_scene
from rgkit.rng import SplitMix64, stream_seed
from rgkit.splat import (
    BIN_CANDIDATE_BYTES,
    BLEND_ORDERS,
    BLOCK_BYTES,
    BevFeatureMap,
    RasterSettings,
    Splat2D,
    build_tile_grid,
    encode,
    nonzero_pixels,
    pillar_scatter,
    project_to_bev,
    rasterize,
    rasterize_oracle,
    read_feature_map,
    sort_splats,
    write_feature_map,
    write_pgm,
)
from rgkit import splat as splat_module
from rgkit.splat import _blend_sum, _columns, _composite, _splat_arrays

VOD = BevRange(0.0, 51.2, -25.6, 25.6, 320, 320)
SMALL = BevRange(0.0, 16.0, -8.0, 8.0, 16, 16)
IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def _prim(mean, scales=(0.5, 0.5, 0.5), quat=IDENTITY_QUAT, opacity=1.0, features=(2.0,)):
    return GaussianPrimitive3D(
        mean=np.asarray(mean, dtype=np.float64),
        scales=np.asarray(scales, dtype=np.float64),
        quat=np.asarray(quat, dtype=np.float64),
        opacity=opacity,
        features=np.asarray(features, dtype=np.float64),
    )


def _random_splats(seed, count, bev, channels=3):
    gen = SplitMix64(stream_seed(seed, "splats"))
    out = []
    for i in range(count):
        prim = _prim(
            mean=[
                bev.x_min + gen.next_f64() * (bev.x_max - bev.x_min),
                bev.y_min + gen.next_f64() * (bev.y_max - bev.y_min),
                gen.next_f64() * 2.0 - 1.0,
            ],
            scales=0.2 + gen.uniforms(3),
            quat=quat_normalize(gen.normals(4)),
            opacity=0.3 + 0.69 * gen.next_f64(),
            features=gen.normals(channels),
        )
        out.append(project_to_bev(prim, bev, lambda_blur=0.3, source_index=i))
    return out


# ---------------------------------------------------------------------------
# Projection


def test_projection_pixel_density_and_corners():
    assert VOD.px_per_m_x == 6.25 and VOD.px_per_m_y == 6.25
    origin = project_to_bev(_prim([0.0, -25.6, 1.0]), VOD)
    assert np.array_equal(origin.mean2d, [0.0, 0.0])
    center = project_to_bev(_prim([25.6, 0.0, -2.0]), VOD)
    assert np.array_equal(center.mean2d, [160.0, 160.0])
    assert center.blend_key == (-2.0, 0)


def test_projection_covariance_axis_aligned():
    s = project_to_bev(_prim([0.0, 0.0, 0.0], scales=(0.4, 0.8, 5.0)), VOD,
                       lambda_blur=0.3)
    # z extent never reaches the ground-plane covariance
    want = np.diag([6.25**2 * 0.4**2 + 0.3, 6.25**2 * 0.8**2 + 0.3])
    assert np.allclose(s.cov2d, want, rtol=0, atol=1e-12)
    assert np.allclose(s.cov2d_inv @ s.cov2d, np.eye(2), atol=1e-12)


def test_projection_yaw_mixes_xy():
    quarter = np.array([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)])
    s = project_to_bev(_prim([0.0, 0.0, 0.0], scales=(1.0, 2.0, 1.0), quat=quarter),
                       VOD, lambda_blur=0.0)
    # a quarter turn about z swaps the x and y footprints
    want = np.diag([6.25**2 * 4.0, 6.25**2 * 1.0])
    assert np.allclose(s.cov2d, want, rtol=0, atol=1e-9)


def test_projection_rejects_vanishing_footprint():
    with pytest.raises(SingularCovariance):
        project_to_bev(_prim([0.0, 0.0, 0.0], scales=(1e-9, 1e-9, 1e-9)), VOD,
                       lambda_blur=0.0)
    # a footprint whose covariance leaves float64 has no usable inverse either
    for scales in ((1e200, 1.0, 1.0), (1e160, 1e160, 1.0)):
        with pytest.raises(SingularCovariance):
            project_to_bev(_prim([0.0, 0.0, 0.0], scales=scales,
                                 quat=quat_normalize(np.array([1.0, 0.2, 0.3, 0.4]))), VOD)


def test_sort_splats_orders_and_ties():
    splats = _random_splats(50, 6, SMALL)
    asc = sort_splats(splats, "z-asc")
    assert all(asc[i].blend_key[0] <= asc[i + 1].blend_key[0] for i in range(5))
    desc = sort_splats(splats, "z-desc")
    assert [s.blend_key for s in desc] == [s.blend_key for s in reversed(asc)] or all(
        desc[i].blend_key[0] >= desc[i + 1].blend_key[0] for i in range(5)
    )
    by_index = sort_splats(splats, "index")
    assert [s.blend_key[1] for s in by_index] == list(range(6))
    with pytest.raises(InvalidSpec):
        sort_splats(splats, "random")


# ---------------------------------------------------------------------------
# Analytic blending values


def _center_splat(feature=2.0, opacity=1.0, px_right=0.0):
    """One splat whose mean sits exactly on the center of pixel (8, 8), or
    ``px_right`` pixels to the right of it."""
    prim = _prim([8.5 + px_right, 0.5, 0.0], opacity=opacity, features=(feature,))
    return project_to_bev(prim, SMALL, lambda_blur=0.0)


def test_single_splat_center_is_alpha_max_times_feature():
    fmap = rasterize([_center_splat()], SMALL, channels=1,
                     settings=RasterSettings(t_min=0.0, lambda_blur=0.0))
    got = float(fmap.data[0, 8, 8])
    assert abs(got - 1.98) <= 1e-6 * 1.98  # 0.99 * 2.0


def test_single_splat_falloff_matches_gaussian():
    fmap = rasterize([_center_splat()], SMALL, channels=1,
                     settings=RasterSettings(t_min=0.0, lambda_blur=0.0))
    # one pixel to the right: d = (1, 0), cov2d = diag(0.25) => q = 4
    want = math.exp(-2.0) * 2.0
    assert abs(float(fmap.data[0, 8, 9]) - want) <= 1e-6 * want
    # far corner is identically zero (below the alpha_min skip threshold)
    assert float(fmap.data[0, 0, 0]) == 0.0


def test_two_stacked_splats_with_early_stop_disabled():
    splats = [_center_splat(), _center_splat()]
    fmap = rasterize(splats, SMALL, channels=1,
                     settings=RasterSettings(t_min=0.0, lambda_blur=0.0))
    want = 2.0 * (0.99 + 0.99 * 0.01)
    assert abs(float(fmap.data[0, 8, 8]) - want) <= 1e-6 * want


def test_early_stop_drops_opaque_tail():
    # after the first alpha=0.99 splat, T*(1-alpha) ~ 1e-4 falls below the
    # default t_min, so later splats never land on the center pixel
    splats = [_center_splat(), _center_splat(), _center_splat()]
    fmap = rasterize(splats, SMALL, channels=1,
                     settings=RasterSettings(t_min=1e-4, lambda_blur=0.0))
    assert abs(float(fmap.data[0, 8, 8]) - 1.98) <= 1e-6 * 1.98


def test_t_min_zero_accumulates_full_series():
    splats = [_center_splat() for _ in range(3)]
    fmap = rasterize(splats, SMALL, channels=1,
                     settings=RasterSettings(t_min=0.0, lambda_blur=0.0))
    want = 2.0 * 0.99 * (1.0 + 0.01 + 0.0001)
    assert abs(float(fmap.data[0, 8, 8]) - want) <= 1e-6 * want


def test_opacity_below_alpha_min_contributes_nothing():
    fmap = rasterize([_center_splat(opacity=1.0 / 500.0)], SMALL, channels=1,
                     settings=RasterSettings(t_min=0.0, lambda_blur=0.0))
    assert np.count_nonzero(fmap.data) == 0


def test_skipped_splat_between_used_ones_leaves_t_unchanged():
    # the middle splat sits 2 px away: alpha = exp(-8) ~ 3.4e-4 < alpha_min
    # at pixel (8, 8), so the last splat still sees T = 0.5 exactly
    splats = [_center_splat(2.0, 0.5), _center_splat(100.0, px_right=2.0),
              _center_splat(4.0, 0.5)]
    settings = RasterSettings(t_min=0.0, lambda_blur=0.0, blend_order="index")
    fmap = rasterize(splats, SMALL, channels=1, settings=settings)
    assert float(fmap.data[0, 8, 8]) == 2.0 * 0.5 + 4.0 * 0.5 * 0.5
    assert float(fmap.data[0, 8, 10]) > 50.0  # the middle splat is used at its own center


def test_no_splat_reaches_a_pixel_after_its_early_stop():
    # the second splat would take T to ~1e-4 < t_min: the pixel stops there,
    # and neither a weak nor an alpha_max later splat lands on it
    splats = [_center_splat(2.0), _center_splat(1000.0), _center_splat(1000.0, 0.5),
              _center_splat(1000.0)]
    settings = RasterSettings(t_min=1e-4, lambda_blur=0.0, blend_order="index")
    fmap = rasterize(splats, SMALL, channels=1, settings=settings)
    assert fmap.data[0, 8, 8] == np.float32(2.0) * np.float32(0.99)
    # one pixel over, alpha = 0.99 * exp(-2) never stops the pixel
    assert float(fmap.data[0, 8, 9]) > 1000.0 * 0.1


def test_narrow_edge_tiles_match_oracle():
    # 40 x 37 pixels in 16 px tiles: the last tile column is 8 px wide and
    # the last tile row 5 px tall
    bev = BevRange(0.0, 10.0, 0.0, 9.25, 37, 40)
    splats = _random_splats(64, 80, bev)
    settings = RasterSettings(t_min=0.0)
    tiled = rasterize(splats, bev, channels=3, settings=settings)
    oracle = rasterize_oracle(splats, bev, channels=3, settings=settings)
    assert np.count_nonzero(tiled.data[:, 32:, :]) > 0
    assert np.count_nonzero(tiled.data[:, :, 32:]) > 0
    diff = np.max(np.abs(tiled.data.astype(np.float64) - oracle.data.astype(np.float64)))
    assert diff <= 1e-4


def test_deep_tile_stack_matches_oracle():
    gen = SplitMix64(stream_seed(65, "stack"))
    splats = [
        project_to_bev(_prim([6.0 + 4.0 * gen.next_f64(), -2.0 + 4.0 * gen.next_f64(),
                              gen.next_f64()],
                             opacity=0.05 + 0.25 * gen.next_f64(),
                             features=gen.normals(2)), SMALL, 0.3, i)
        for i in range(320)
    ]
    settings = RasterSettings(t_min=0.0)
    assert max(len(t) for t in build_tile_grid(sort_splats(splats), SMALL, settings).tiles) >= 300
    tiled = rasterize(splats, SMALL, channels=2, settings=settings)
    oracle = rasterize_oracle(splats, SMALL, channels=2, settings=settings)
    diff = np.max(np.abs(tiled.data.astype(np.float64) - oracle.data.astype(np.float64)))
    assert diff <= 1e-4


def test_blend_order_changes_occlusion():
    low = project_to_bev(_prim([8.5, 0.5, -1.0], features=(1.0,)), SMALL, 0.0, 0)
    high = project_to_bev(_prim([8.5, 0.5, +1.0], features=(-1.0,)), SMALL, 0.0, 1)
    settings_asc = RasterSettings(t_min=0.0, lambda_blur=0.0, blend_order="z-asc")
    settings_desc = RasterSettings(t_min=0.0, lambda_blur=0.0, blend_order="z-desc")
    asc = rasterize([low, high], SMALL, channels=1, settings=settings_asc)
    desc = rasterize([low, high], SMALL, channels=1, settings=settings_desc)
    # front feature dominates: +0.99 - 0.0099 ascending, reversed descending
    assert float(asc.data[0, 8, 8]) == pytest.approx(0.99 - 0.0099, rel=1e-5)
    assert float(desc.data[0, 8, 8]) == pytest.approx(-0.99 + 0.0099, rel=1e-5)


# ---------------------------------------------------------------------------
# Oracle equivalence and scheduling


@pytest.mark.parametrize("seed", [60, 61, 62])
def test_tiled_matches_oracle(seed):
    bev = BevRange(0.0, 20.0, -10.0, 10.0, 96, 80)
    splats = _random_splats(seed, 150, bev)
    settings = RasterSettings(t_min=0.0)
    tiled = rasterize(splats, bev, channels=3, settings=settings)
    oracle = rasterize_oracle(splats, bev, channels=3, settings=settings)
    diff = np.max(np.abs(tiled.data.astype(np.float64) - oracle.data.astype(np.float64)))
    assert diff <= 1e-4


@pytest.mark.parametrize("tile_size", [17, 1000])
def test_a_tile_larger_than_the_map_reports_the_clamped_edge(tile_size):
    # the grid is the whole map in one tile of edge max(h, w), as binning
    # uses it; build_tile_grid reported the unclamped tile_size
    bev = BevRange(0.0, 16.0, -8.0, 8.0, 16, 12)
    splats = sort_splats(_random_splats(5, 40, bev))
    grid = build_tile_grid(splats, bev, RasterSettings(tile_size=tile_size))
    assert (grid.tile_size, grid.n_tiles_x, grid.n_tiles_y) == (16, 1, 1)
    assert grid == build_tile_grid(splats, bev, RasterSettings(tile_size=16))
    assert grid.tiles[0]


def test_off_map_splats_land_in_no_tile():
    bev = BevRange(0.0, 16.0, -8.0, 8.0, 64, 64)  # 4 px per meter, 4 x 4 tiles
    means = ([1e308, 0.0, 0.0], [-1e308, 0.0, 0.0], [5.0, 1e308, 0.0],
             [-3.0, 0.0, 0.0], [5.0, 12.0, 0.0])
    splats = [project_to_bev(_prim(m), bev, 0.3, i) for i, m in enumerate(means)]
    assert not any(build_tile_grid(splats, bev, RasterSettings()).tiles)
    assert nonzero_pixels(rasterize(splats, bev, channels=1)) == 0
    near = [project_to_bev(_prim([5.0, 0.0, 0.0]), bev, 0.3)]
    assert any(build_tile_grid(near, bev, RasterSettings()).tiles)


def test_rasterize_empty_and_mismatched():
    fmap = rasterize([], SMALL, channels=2)
    assert fmap.data.shape == (2, 16, 16) and np.count_nonzero(fmap.data) == 0
    with pytest.raises(InvalidSpec):
        rasterize([], SMALL)
    mixed = [_center_splat(), _random_splats(1, 1, SMALL, channels=3)[0]]
    with pytest.raises(ShapeMismatch):
        rasterize(mixed, SMALL)
    with pytest.raises(ShapeMismatch):
        rasterize([_center_splat()], SMALL, channels=4)


def test_translation_consistency():
    bev = BevRange(0.0, 16.0, -8.0, 8.0, 64, 64)  # 4 px per meter
    base = _prim([5.0, 0.0, 0.0])
    moved = _prim([5.0 + 2.0, 0.0, 0.0])  # exactly 8 pixels right
    a = rasterize([project_to_bev(base, bev, 0.3)], bev, channels=1)
    b = rasterize([project_to_bev(moved, bev, 0.3)], bev, channels=1)
    assert np.allclose(a.data[0, :, :48], b.data[0, :, 8:56], atol=2e-6)


# ---------------------------------------------------------------------------
# Pillar baseline and map helpers


def test_pillar_scatter_orientation_and_sums():
    bev = BevRange(0.0, 8.0, 0.0, 4.0, 4, 8)  # 1 px per meter, h != w
    cloud = PointCloud(
        [[6.5, 1.5, 0.0], [6.7, 1.2, 0.0], [0.0, 0.0, 0.0], [9.0, 1.0, 0.0]],
        [[1.0], [2.0], [5.0], [100.0]],
    )
    fmap = pillar_scatter(cloud, bev)
    assert fmap.data.shape == (1, 4, 8)
    assert fmap.data[0, 1, 6] == 3.0  # x -> column, y -> row, features summed
    assert fmap.data[0, 0, 0] == 5.0
    assert fmap.data.sum() == 8.0  # the x=9 point is outside and dropped
    assert nonzero_pixels(fmap) == 2


def test_pillar_scatter_boundary_is_inside():
    bev = BevRange(0.0, 8.0, 0.0, 4.0, 4, 8)
    cloud = PointCloud([[8.0, 4.0, 0.0]], [[7.0]])
    fmap = pillar_scatter(cloud, bev)
    assert fmap.data[0, 3, 7] == 7.0  # clamped into the last row/column


@pytest.mark.parametrize("features", [[[3e38], [3e38]], [[1e200], [0.0]],
                                      [[1.7e308], [1.7e308]]])
def test_pillar_sums_past_float32_raise_invalid_spec(features):
    # two points in one pixel: a sum past float32 leaked "overflow encountered
    # in cast", and one past float64 wrote inf without a word
    cloud = PointCloud([[1.5, 1.5, 0.0], [1.5, 1.5, 0.0]], features)
    with pytest.raises(InvalidSpec, match="pillar sums of channel 0 overflow float32"):
        pillar_scatter(cloud, BevRange(0.0, 4.0, 0.0, 4.0, 4, 4))


def test_nonzero_pixels_counts_any_channel():
    data = np.zeros((2, 3, 3), dtype=np.float32)
    data[0, 0, 0] = 1.0
    data[1, 0, 0] = 2.0  # same pixel, second channel
    data[1, 2, 2] = -1.0
    data[0, 1, 1] = -0.0  # zero
    data[1, 2, 0] = np.nan  # nonzero
    fmap = BevFeatureMap(data, BevRange(0, 3, 0, 3, 3, 3))
    assert nonzero_pixels(fmap) == 3
    bare = PointCloud([[1.0, 1.0, 0.0]], np.zeros((1, 0)))  # c_raw = 0
    assert nonzero_pixels(pillar_scatter(bare, BevRange(0, 3, 0, 3, 3, 3))) == 0


def test_nonzero_pixels_builds_no_map_sized_temporary():
    # `data != 0` used to build a C x H x W bool array (4 MiB here)
    data = np.zeros((16, 512, 512), dtype=np.float32)
    data[3, 7, 9] = data[15, 511, 0] = 1.0
    fmap = BevFeatureMap(data, BevRange(0, 512, 0, 512, 512, 512))
    tracemalloc.start()
    try:
        assert nonzero_pixels(fmap) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 512 * 512  # the H x W bool plane and some slack


def test_feature_map_validation():
    with pytest.raises(ShapeMismatch):
        BevFeatureMap(np.zeros((3, 3)), BevRange(0, 3, 0, 3, 3, 3))
    with pytest.raises(ShapeMismatch):
        BevFeatureMap(np.zeros((1, 4, 3), dtype=np.float32), BevRange(0, 3, 0, 3, 3, 3))


# ---------------------------------------------------------------------------
# Encoder


def test_encode_shape_and_determinism():
    cloud = generate_scene(SceneSpec(seed=70, n_points=120))
    params = init_weights(70, c_raw=4, c=16)
    a = encode(cloud, params, VOD)
    b = encode(cloud, params, VOD)
    assert a == b
    assert a.data.shape == (params.feature_dim, 320, 320)
    assert nonzero_pixels(a) > 0
    other = encode(cloud, init_weights(71, c_raw=4, c=16), VOD)
    assert other != a


def test_encode_is_spatially_local():
    # points confined to the left 30% of the range cannot reach the right half
    spec = SceneSpec(seed=72, n_points=100,
                     bev=BevRange(0.0, 15.36, -25.6, 25.6, 320, 320))
    cloud = generate_scene(spec)
    fmap = encode(cloud, init_weights(72, c_raw=4, c=16), VOD)
    cols = np.nonzero(np.any(fmap.data != 0, axis=(0, 1)))[0]
    assert cols.size > 0
    assert cols.max() < 160


def test_encode_threads_bit_identical():
    cloud = generate_scene(SceneSpec(seed=73, n_points=150))
    params = init_weights(73, c_raw=4, c=16)
    assert encode(cloud, params, VOD, threads=1) == encode(cloud, params, VOD, threads=8)


# ---------------------------------------------------------------------------
# The array path against the per-object pipeline it replaced
#
# A copy of the pipeline as it was before encode ran on arrays: one object
# per primitive with a matmul per covariance, Python ``sorted``, a binning
# loop over splats and the tile loop.  The array path must give its bytes.


def _ref_quat_normalize(q):
    n = float(np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]))
    return q / n


def _ref_project(g, bev, lambda_blur, source_index):
    sx, sy = bev.px_per_m_x, bev.px_per_m_y
    with np.errstate(over="ignore"):
        mean2d = np.array([(g.mean[0] - bev.x_min) * sx, (g.mean[1] - bev.y_min) * sy])
    sigma = covariance_from_scale_rot(g.scales, quat_to_rotmat(_ref_quat_normalize(g.quat)))
    m = np.array([[sx, 0.0, 0.0], [0.0, sy, 0.0]])
    cov2d = m @ sigma @ m.T + lambda_blur * np.eye(2)
    det = cov2d[0, 0] * cov2d[1, 1] - cov2d[0, 1] * cov2d[1, 0]
    assert abs(det) > 1e-12
    inv = np.array([[cov2d[1, 1], -cov2d[0, 1]], [-cov2d[1, 0], cov2d[0, 0]]]) / det
    return Splat2D(mean2d, cov2d, inv, np.asarray(g.features, dtype=np.float64),
                   float(g.opacity), (float(g.mean[2]), int(source_index)))


def _ref_sort(splats, blend_order):
    keys = {"z-asc": lambda s: s.blend_key, "z-desc": lambda s: (-s.blend_key[0], s.blend_key[1]),
            "index": lambda s: s.blend_key[1]}
    return sorted(splats, key=keys[blend_order])


def _ref_bin(ordered, bev, settings):
    ts = settings.tile_size
    ntx, nty = (bev.w + ts - 1) // ts, (bev.h + ts - 1) // ts
    tiles = [[] for _ in range(ntx * nty)]
    for i, s in enumerate(ordered):
        if s.opacity < settings.alpha_min:
            continue
        a, b, c = s.cov2d[0, 0], s.cov2d[0, 1], s.cov2d[1, 1]
        mid = 0.5 * (a + c)
        lam_max = mid + math.sqrt(max(mid * mid - (a * c - b * b), 0.0))
        k = 3.0
        if s.opacity > settings.alpha_min:
            k = max(3.0, math.sqrt(2.0 * math.log(s.opacity / settings.alpha_min)))
        radius = k * math.sqrt(max(lam_max, 0.0))
        mx, my = s.mean2d
        if mx + radius < 0 or my + radius < 0 or mx - radius >= bev.w or my - radius >= bev.h:
            continue
        for ty in range(max(math.floor((my - radius) / ts), 0),
                        min(math.floor((my + radius) / ts), nty - 1) + 1):
            for tx in range(max(math.floor((mx - radius) / ts), 0),
                            min(math.floor((mx + radius) / ts), ntx - 1) + 1):
                tiles[ty * ntx + tx].append(i)
    return tiles


def _ref_rasterize(splats, bev, channels, settings):
    out = np.zeros((channels, bev.h, bev.w), dtype=np.float32)
    order = _ref_sort(splats, settings.blend_order)
    ts = settings.tile_size
    ntx = (bev.w + ts - 1) // ts
    means = np.array([s.mean2d for s in order])
    invs = np.array([[s.cov2d_inv[0, 0], s.cov2d_inv[0, 1], s.cov2d_inv[1, 1]] for s in order])
    opac = np.array([s.opacity for s in order])
    feats32 = np.array([s.features for s in order], dtype=np.float32)
    for tile_index, idxs in enumerate(_ref_bin(order, bev, settings)):
        if not idxs:
            continue
        idx = np.array(idxs)
        ty, tx = divmod(tile_index, ntx)
        r0, r1 = ty * ts, min((ty + 1) * ts, bev.h)
        c0, c1 = tx * ts, min((tx + 1) * ts, bev.w)
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
        acc = _blend_sum(feats32[idx], weight)
        out[:, r0:r1, c0:c1] = acc.reshape(channels, r1 - r0, c1 - c0)
    return out


def _ref_splats(cloud, params, bev, settings):
    f_lfa = lfa_index_scatter(cloud, params.lfa, params.r)
    f_gfa = gfa(cloud, params.attn)
    raw = params.head.apply(np.concatenate([cloud.features, f_lfa, f_gfa], axis=1))
    scales = softplus(raw[:, :3]) + params.s_min
    prims = [GaussianPrimitive3D(cloud.positions[i].copy(), scales[i],
                                 _ref_quat_normalize(raw[i, 3:7]), 1.0, raw[i, 7:].copy())
             for i in range(len(cloud))]
    return [_ref_project(g, bev, settings.lambda_blur, i) for i, g in enumerate(prims)]


def _ref_encode(cloud, params, bev, settings):
    return _ref_rasterize(_ref_splats(cloud, params, bev, settings), bev, params.feature_dim,
                          settings)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"{np.count_nonzero(got != want)} values differ"


@pytest.mark.parametrize("blend_order", BLEND_ORDERS)
@pytest.mark.parametrize("t_min", [1e-4, 0.0, -1.0])
@pytest.mark.parametrize("seed", [70, 73])
def test_encode_matches_per_object_pipeline_bytes(seed, t_min, blend_order):
    cloud = generate_scene(SceneSpec(seed=seed, n_points=150))
    params = init_weights(seed, c_raw=4, c=16)
    settings = RasterSettings(t_min=t_min, blend_order=blend_order)
    _assert_same_bytes(encode(cloud, params, VOD, settings).data,
                       _ref_encode(cloud, params, VOD, settings))


TJ4D = BevRange(0.0, 69.12, -39.68, 39.68, 432, 496)  # the tj4d preset: 7.18 x 5.44 px/m


def _dense_tj4d_frame():
    # 2500 points in 5 tight clusters: hundreds of splats per tile, as in
    # the benchmark's tj4d-dense frames
    cloud = generate_scene(SceneSpec(seed=74, n_points=2500, n_clusters=5, cluster_sigma=0.5,
                                     bev=TJ4D, z_min=-4.0, z_max=2.0))
    return cloud, init_weights(0, c_raw=4, c=64)


@pytest.mark.parametrize("blend_order,t_min", [("z-asc", 1e-4), ("z-desc", 1e-4),
                                               ("index", 1e-4), ("z-asc", 0.0)])
def test_encode_matches_per_object_pipeline_bytes_on_a_dense_tj4d_frame(blend_order, t_min):
    cloud, params = _dense_tj4d_frame()
    settings = RasterSettings(t_min=t_min, blend_order=blend_order)
    _assert_same_bytes(encode(cloud, params, TJ4D, settings).data,
                       _ref_encode(cloud, params, TJ4D, settings))


def _disc_splat(mx, my, opacity=0.3, var=4.0, key=0):
    """Isotropic splat; at opacity <= alpha_min e^4.5 its coverage radius is
    exactly 3 sqrt(var) (6 px by default)."""
    cov = np.diag([var, var])
    return Splat2D(np.array([mx, my]), cov, np.linalg.inv(cov), np.ones(1), opacity, (0.0, key))


def _cov_splat(mx, my, cov, opacity=0.3, key=0, features=(1.0,)):
    """Splat of covariance [[a, b], [b, c]] with its adjugate inverse."""
    (a, b), (_, c) = cov
    cov = np.array([[a, b], [b, c]], dtype=np.float64)
    inv = np.array([[c, -b], [-b, a]]) / (a * c - b * b)
    return Splat2D(np.array([mx, my]), cov, inv, np.asarray(features, dtype=np.float64), opacity,
                   (0.0, key))


def _rotated(long_var, short_var, degrees):
    t = math.radians(degrees)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return rot @ np.diag([long_var, short_var]) @ rot.T


def _adversarial_splats(bev, tile_size):
    splats = _random_splats(90, 60, bev, channels=1)
    # discs whose edges fall exactly on tile borders and on the map border
    for x in (-6.0, -6.000001, 0.0, 2.0, 4.0, 10.0, 16.0, 34.0, 39.5, 46.0, 46.000001):
        for y in (-6.0, 4.0, 20.0, 42.9999, 43.0):
            splats.append(_disc_splat(x, y, key=len(splats)))
    # huge and infinite means, opacity at and below alpha_min, huge discs
    amin = RasterSettings().alpha_min
    for mean in ((1e308, 5.0), (-1e308, 5.0), (5.0, 1e308), (np.inf, 5.0), (5.0, -np.inf)):
        splats.append(_disc_splat(*mean, key=len(splats)))
    for opacity in (amin, np.nextafter(amin, 0.0), 0.0, np.nextafter(amin, 1.0), 1.0):
        splats.append(_disc_splat(12.0, 12.0, opacity=opacity, key=len(splats)))
        splats.append(_disc_splat(12.5, 12.5, opacity=opacity, key=len(splats)))
    splats += [_disc_splat(-1e40, 20.0, var=1e90, key=len(splats)),
               _disc_splat(20.0, 20.0, var=1e100, key=len(splats) + 1)]
    # thin, rotated and nearly singular ellipses with means on tile corners,
    # on tile edges, at pixel centres and off the map
    covs = [_rotated(400.0, 1e-3, d) for d in (0.0, 30.0, 45.0, 90.0, 135.0)]
    # determinants of about 1.1e-12, just above DET_EPS
    covs += [_rotated(1e-3, 1.1e-9, 45.0), np.diag([1e-6, 1.1e-6]), _rotated(9.0, 0.3, 45.0)]
    means = [(tile_size * i, tile_size * j) for i in (0, 1, 2) for j in (0, 1)]
    means += [(tile_size, 0.5 * tile_size), (17.5, 3.5), (-3.0, 5.0), (43.0, 20.0), (20.0, 40.0)]
    for cov in covs:
        for mean in means:
            for opacity in (0.9, np.nextafter(amin, 1.0), amin, np.nextafter(amin, 0.0)):
                splats.append(_cov_splat(*mean, cov, opacity=opacity, key=len(splats)))
    # indefinite, one with a concave inverse diagonal: clamped stationary
    # points are edge maxima there, and tile (1, 1) at tile_size 4 has
    # alpha = e^-1 o > alpha_min at its corner pixel nearest the mean
    splats.append(_cov_splat(20.3, 20.6, [[1.0, 0.3], [0.3, -100.0]], 0.5, key=len(splats)))
    splats.append(_cov_splat(2.5, 2.5, [[1.0, 3.0], [3.0, 1.0]], amin * math.exp(1.5),
                             key=len(splats)))
    return splats


def _tile_max_alpha(s, bev, ts):
    """Largest float64 alpha of one splat over the pixel centres of each tile."""
    dx = (np.arange(bev.w) + 0.5)[None, :] - s.mean2d[0]
    dy = (np.arange(bev.h) + 0.5)[:, None] - s.mean2d[1]
    ia, ib, ic = s.cov2d_inv[0, 0], s.cov2d_inv[0, 1], s.cov2d_inv[1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        q = ia * dx * dx + 2.0 * ib * (dx * dy) + ic * dy * dy
        alpha = np.minimum(s.opacity * np.exp(-0.5 * q), 0.99)
    nty, ntx = -(-bev.h // ts), -(-bev.w // ts)
    padded = np.full((nty * ts, ntx * ts), -np.inf)
    padded[:bev.h, :bev.w] = np.where(np.isnan(alpha), np.inf, alpha)
    return padded.reshape(nty, ts, ntx, ts).max(axis=(1, 3)).ravel()


@pytest.mark.parametrize("tile_size", [1, 4, 16, 32])
def test_exact_binning_culls_only_pairs_below_alpha_min(tile_size):
    bev = BevRange(0.0, 10.0, 0.0, 9.25, 37, 40)  # partial last tile row and column
    splats = _adversarial_splats(bev, tile_size)
    settings = RasterSettings(tile_size=tile_size)
    culled = 0
    for blend_order in BLEND_ORDERS:
        ordered = sort_splats(splats, blend_order)
        assert [s.blend_key for s in ordered] == [
            s.blend_key for s in _ref_sort(splats, blend_order)]
        if blend_order == "index":
            tile_alpha = [_tile_max_alpha(s, bev, tile_size) for s in ordered]
        exact = build_tile_grid(ordered, bev, settings).tiles
        disc = _ref_bin(ordered, bev, settings)
        assert len(exact) == len(disc)
        for tile, (kept, candidates) in enumerate(zip(exact, disc)):
            # a subsequence of the disc loop's list, so still in blend order
            keep = set(kept)
            assert kept == [i for i in candidates if i in keep]
            if blend_order == "index":  # the cull does not depend on the order
                for i in set(candidates) - keep:
                    culled += 1
                    assert tile_alpha[i][tile] < settings.alpha_min
        _assert_same_bytes(rasterize(splats, bev, 1, settings).data,
                           _ref_rasterize(splats, bev, 1, settings))
    assert culled > 0


def test_binning_spreads_candidates_in_blocks_under_mem_cap():
    # at a 50 m scale floor each of 600 splats covers all 400 tiles of the
    # vod map: 240 k (splat, tile) candidates, which binning used to spread
    # at once whatever mem_cap said (64 MB traced under a 2 MiB cap)
    cloud = generate_scene(SceneSpec(seed=0, n_points=600))
    params = init_weights(0, c_raw=4, c=8, s_min=50.0)
    want = encode(cloud, params, VOD)
    tracemalloc.start()
    try:
        got = encode(cloud, params, VOD, mem_cap=2 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_bytes(got.data, want.data)
    assert peak < 16 << 20


def test_binning_blocks_split_splats_and_keep_the_bytes():
    # 6 splats of 400 tiles each: blocks of one and of 997 candidates end
    # inside a splat's tiles; a cap below one candidate cannot be met
    cloud = generate_scene(SceneSpec(seed=1, n_points=6))
    params = init_weights(1, c_raw=4, c=8, s_min=50.0)
    want = encode(cloud, params, VOD)
    for cap in (BIN_CANDIDATE_BYTES, 997 * BIN_CANDIDATE_BYTES):
        _assert_same_bytes(encode(cloud, params, VOD, mem_cap=cap).data, want.data)
    with pytest.raises(AllocationLimit, match="2400 .splat, tile. candidates"):
        encode(cloud, params, VOD, mem_cap=BIN_CANDIDATE_BYTES - 1)


def test_binning_index_arrays_grow_with_the_hits_not_the_tiles():
    # two small splats on 4 M one-pixel tiles: binning used to build index
    # arrays over every tile (84 MB traced besides the 16 MiB map, which is
    # a page mapping that tracemalloc does not see); ~50 kB are traced now
    bev = BevRange(0.0, 2048.0, -1024.0, 1024.0, 2048, 2048)
    cloud = PointCloud([[10.0, 0.0, 0.0], [1030.0, 5.0, 1.0]], [[1.0, 0.5], [-1.0, 2.0]])
    params = init_weights(0, c_raw=2, c=1)
    tracemalloc.start()
    try:
        fmap = encode(cloud, params, bev, RasterSettings(tile_size=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nonzero_pixels(fmap) > 0
    assert peak < 1 << 20


def _populate_read_works() -> bool:
    """Whether this is Linux with ``/proc/self/status`` and a kernel that
    takes ``madvise(MADV_POPULATE_READ)`` (5.14+) on a private mapping."""
    if not sys.platform.startswith("linux") or not os.path.exists("/proc/self/status"):
        return False
    buf = mmap.mmap(-1, mmap.PAGESIZE, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    try:
        buf.madvise(22)
    except OSError:
        return False
    finally:
        buf.close()
    return True


#: A child that encodes two splats onto a 16 x 1024 x 1024 map (64 MiB) and
#: writes it, and prints its peak RSS over its RSS before the encode, and the
#: minor page faults of the write.
_SPARSE_MAP_CHILD = """
import resource, sys
from rgkit.aggregation import init_weights
from rgkit.config import BevRange
from rgkit.pointcloud import PointCloud
from rgkit.splat import encode, write_feature_map

def vm(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith(key + ":"))

cloud = PointCloud([[100.0, 100.0, 0.0], [900.0, 700.0, 1.0]], [[1.0, 0.5], [-1.0, 2.0]])
params = init_weights(0, c_raw=2, c=16)
write_feature_map(encode(cloud, params, BevRange(0.0, 1024.0, 0.0, 1024.0, 64, 64)), sys.argv[1])
before = vm("VmRSS")
fmap = encode(cloud, params, BevRange(0.0, 1024.0, 0.0, 1024.0, 1024, 1024))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
write_feature_map(fmap, sys.argv[1])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(vm("VmHWM") - before, faults)
"""


@pytest.mark.skipif(not _populate_read_works(),
                    reason="needs /proc/self/status and madvise(MADV_POPULATE_READ)")
def test_a_sparse_map_keeps_only_its_touched_pages_resident(tmp_path):
    # the map was a NumPy array advised huge pages: resident whole (+64 MiB)
    # once the splats' tiles touched each channel's halves.  Now only the
    # touched 4 KiB pages are (~2 MiB), and the holes, backed by the shared
    # zero page, cost the write no page faults (~16 000 without them).
    src = str(Path(rgkit.__file__).resolve().parents[1])
    ran = subprocess.run([sys.executable, "-c", _SPARSE_MAP_CHILD, str(tmp_path / "m.rgfm")],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True)
    grown, faults = map(int, ran.stdout.split())
    assert grown < (64 << 20) // 4
    assert faults < 256
    data = read_feature_map(tmp_path / "m.rgfm").data
    assert data.shape == (16, 1024, 1024) and 0 < np.count_nonzero(data) < data.size // 100


def _written_pages(data) -> int:
    """Pages of a page-aligned array that this process wrote: those whose
    ``/proc/self/pagemap`` entry has bit 56 (exclusively mapped) set, which
    the shared zero page behind a hole never has."""
    with open("/proc/self/pagemap", "rb") as fh:
        fh.seek(data.ctypes.data // mmap.PAGESIZE * 8)
        entries = np.frombuffer(fh.read(8 * (data.nbytes // mmap.PAGESIZE)), dtype="<u8")
    return int(np.count_nonzero((entries >> 56) & 1))


def _pagemap_marks_written_pages() -> bool:
    """Whether ``/proc/self/pagemap`` can be read and marks a written page
    of a private mapping exclusive (Linux 4.2+), and the transparent huge
    page mode is not ``always``, under which one store could make 512
    pages resident."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as fh:
            if "[always]" in fh.read():
                return False
    except OSError:
        pass
    if not hasattr(mmap, "MAP_PRIVATE"):
        return False
    buf = mmap.mmap(-1, mmap.PAGESIZE, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    page = np.ndarray(mmap.PAGESIZE, dtype=np.uint8, buffer=buf)
    page[0] = 1
    try:
        written = _written_pages(page) == 1
    except OSError:
        written = False
    del page
    buf.close()
    return written


@pytest.mark.skipif(not _pagemap_marks_written_pages(),
                    reason="needs /proc/self/pagemap's exclusive bit and 4 KiB pages")
def test_compositing_writes_only_the_pages_holding_a_value(dense_tj4d_splats, monkeypatch):
    # pixel groups stored +0 into rows that no splat reaches: 6 480 of the
    # map's 13 392 pages were written, against 5 312 holding a value
    def check(data):
        assert isinstance(data.base, mmap.mmap) and data.nbytes % mmap.PAGESIZE == 0
        written = _written_pages(data)
        holding = data.view(np.uint32).reshape(-1, mmap.PAGESIZE // 4).any(axis=1)
        assert written == np.count_nonzero(holding) > 0

    cloud, params = _dense_tj4d_frame()
    check(encode(cloud, params, TJ4D).data)
    settings = RasterSettings()
    cap = _one_pixel_cap(dense_tj4d_splats, TJ4D, settings)
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        check(_composite_at(dense_tj4d_splats, TJ4D, 64, settings, cap))


def test_encode_map_is_the_same_without_a_page_mapping(monkeypatch):
    # where mmap has no MAP_PRIVATE the map is np.zeros, with the same bytes
    cloud = generate_scene(SceneSpec(seed=7, n_points=150))
    params = init_weights(7, c_raw=4, c=16)
    paged = encode(cloud, params, VOD).data
    assert isinstance(paged.base, mmap.mmap)
    monkeypatch.delattr(mmap, "MAP_PRIVATE")
    plain = encode(cloud, params, VOD).data
    assert plain.flags.owndata
    _assert_same_bytes(paged, plain)


def _composite_at(splats, bev, channels, settings, mem_cap):
    """:func:`rasterize` under ``mem_cap``."""
    order = sort_splats(splats, settings.blend_order)
    return _composite(*_splat_arrays(order), _columns(order, "features", channels), bev,
                      settings, mem_cap).data


def _deepest(splats, bev, settings):
    return max(map(len, build_tile_grid(sort_splats(splats, settings.blend_order), bev,
                                        settings).tiles))


def _one_pixel_cap(splats, bev, settings):
    """A mem_cap that holds one pixel's blend buffers of the deepest tile
    (17 bytes a splat) but not two, and one binning candidate."""
    deepest = _deepest(splats, bev, settings)
    cap = max(17 * deepest, BIN_CANDIDATE_BYTES)
    assert cap < 2 * 17 * deepest
    return cap


@pytest.fixture(scope="module")
def dense_tj4d_splats():
    cloud, params = _dense_tj4d_frame()
    return _ref_splats(cloud, params, TJ4D, RasterSettings())


@pytest.mark.parametrize("blend_order", BLEND_ORDERS)
@pytest.mark.parametrize("t_min", [1e-4, 0.0])
def test_blend_pixel_groups_keep_the_bytes_on_a_dense_tj4d_frame(dense_tj4d_splats, t_min,
                                                                 blend_order):
    # groups of whole rows and of one pixel; the default cap's are in the
    # per-object pipeline test above
    settings = RasterSettings(t_min=t_min, blend_order=blend_order)
    want = _ref_rasterize(dense_tj4d_splats, TJ4D, 64, settings)
    for cap in (1 << 16, _one_pixel_cap(dense_tj4d_splats, TJ4D, settings)):
        _assert_same_bytes(_composite_at(dense_tj4d_splats, TJ4D, 64, settings, cap), want)


def _lit_row_splats(ts):
    """Small discs at two points ``ts - 7`` rows apart in tile (0, 0), five
    at each so that a one-pixel cap also holds a binning candidate: its
    pixel groups have +0 rows before, between and after the lit ones.  And
    a thin ellipse between two pixel rows of tile (1, 1): binning keeps that
    tile, as the mean lies inside its rectangle of pixel centres, but alpha
    is ~e^-125 at every centre, so no row is used there."""
    discs = [_disc_splat(5.5, y, opacity=0.9, var=0.3, key=i)
             for i, y in enumerate([2.5] * 5 + [ts - 4.5] * 5)]
    return discs + [_cov_splat(ts + 4.0, ts + 2.0, np.diag([1.0, 1e-3]), opacity=0.9, key=10)]


@pytest.mark.parametrize("tile_size", [16, 32])
def test_blend_pixel_groups_keep_the_bytes_on_the_binning_fixture(tile_size):
    bev = BevRange(0.0, 10.0, 0.0, 9.25, 37, 40)
    lit_rows = _lit_row_splats(tile_size)
    settings = RasterSettings(tile_size=tile_size)
    kept = [i for i, t in enumerate(build_tile_grid(lit_rows, bev, settings).tiles) if t]
    assert kept == [0, -(-bev.w // tile_size) + 1]
    lit = np.flatnonzero(_ref_rasterize(lit_rows, bev, 1, settings)[0].any(axis=1))
    assert 0 < lit.min() and lit.max() < tile_size - 1 and np.diff(lit).max() > 1
    for splats in (_adversarial_splats(bev, tile_size), lit_rows):
        for blend_order in BLEND_ORDERS:
            for t_min in (1e-4, 0.0):
                settings = RasterSettings(tile_size=tile_size, t_min=t_min,
                                          blend_order=blend_order)
                want = _ref_rasterize(splats, bev, 1, settings)
                one_pixel = _one_pixel_cap(splats, bev, settings)
                for cap in (DEFAULT_MEM_CAP, BLOCK_BYTES, 1 << 16, 3 * one_pixel, one_pixel):
                    _assert_same_bytes(_composite_at(splats, bev, 1, settings, cap), want)


def test_blend_buffers_stay_under_mem_cap(monkeypatch):
    # 600 splats over one 64 x 64 tile: the blend buffers used to hold the
    # whole tile whatever mem_cap said, 600 * 4096 * 17 bytes = 41.8 MB.
    # At tile_size 32 two workers share the cap (tracemalloc sees every thread).
    bev = BevRange(0.0, 51.2, -25.6, 25.6, 64, 64)
    cloud = generate_scene(SceneSpec(seed=0, n_points=600))
    params = init_weights(0, c_raw=4, c=8, s_min=50.0)
    for tile_size, workers in ((64, 1), (32, 2)):
        _force_workers(monkeypatch, workers)
        settings = RasterSettings(tile_size=tile_size)
        want = _ref_encode(cloud, params, bev, settings)
        tracemalloc.start()
        try:
            got = encode(cloud, params, bev, settings, mem_cap=1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_same_bytes(got.data, want)
        assert peak < 4 << 20


def test_workers_share_mem_cap_in_blocks_and_pixels(monkeypatch):
    # two workers need a 1 MiB block each and one pixel of the deepest tile
    # each: a cap for one pixel but not two, or for one block but not two,
    # runs one worker and writes the same bytes
    bev = BevRange(0.0, 10.0, 0.0, 9.25, 37, 40)
    splats = _adversarial_splats(bev, 16)
    settings = RasterSettings(tile_size=16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    picked = []
    pick = splat_module._worker_count
    monkeypatch.setattr(splat_module, "_worker_count",
                        lambda *args: picked.append(pick(*args)) or picked[-1])
    want = _composite_at(splats, bev, 1, settings, DEFAULT_MEM_CAP)
    for cap in (_one_pixel_cap(splats, bev, settings), 2 * BLOCK_BYTES - 1, 2 * BLOCK_BYTES):
        _assert_same_bytes(_composite_at(splats, bev, 1, settings, cap), want)
    assert picked == [2, 1, 1, 2]
    deep = 100_000  # one pixel's buffers, 1.7 MB, outgrow a block
    assert pick(9, deep, 2 * 17 * deep - 1) == 1 and pick(9, deep, 2 * 17 * deep) == 2
    assert pick(1, 10, DEFAULT_MEM_CAP) == 1  # one tile


def _worker_count_by_decrement(tiles, deepest, mem_cap):
    """The rule as a loop: lower W from the CPU and tile bound until each
    worker's share of mem_cap holds a block and one pixel's buffers."""
    workers = max(min(len(os.sched_getaffinity(0)), splat_module.MAX_WORKERS, tiles), 1)
    while workers > 1 and mem_cap // workers < max(BLOCK_BYTES, 17 * deepest):
        workers -= 1
    return workers


def test_worker_count_is_the_decrement_loops_fixed_point(monkeypatch):
    for cpus in range(1, 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        for tiles in range(4):
            for deepest in (0, 1, 1_000, 100_000):
                caps = {0, 17 * deepest, 2 * 17 * deepest} | {
                    m * BLOCK_BYTES + d for m in (1, 2, 3) for d in (-1, 0, 1)}
                for cap in sorted(caps):
                    assert (splat_module._worker_count(tiles, deepest, cap)
                            == _worker_count_by_decrement(tiles, deepest, cap)), \
                        (cpus, tiles, deepest, cap)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(splat_module, "_worker_count", lambda *args: workers)


@pytest.mark.parametrize("blend_order", BLEND_ORDERS)
@pytest.mark.parametrize("t_min", [1e-4, 0.0])
def test_worker_count_keeps_the_bytes_on_a_dense_tj4d_frame(dense_tj4d_splats, t_min,
                                                            blend_order, monkeypatch):
    # tiles are disjoint and every step is per pixel; at 17 x deepest x W
    # each worker blends one-pixel groups (one worker's are tested against
    # the per-object pipeline above)
    settings = RasterSettings(t_min=t_min, blend_order=blend_order)
    deepest = _deepest(dense_tj4d_splats, TJ4D, settings)
    _force_workers(monkeypatch, 1)
    want = _composite_at(dense_tj4d_splats, TJ4D, 64, settings, DEFAULT_MEM_CAP)
    for workers in (2, 3):
        _force_workers(monkeypatch, workers)
        for cap in (DEFAULT_MEM_CAP, 17 * deepest * workers):
            _assert_same_bytes(_composite_at(dense_tj4d_splats, TJ4D, 64, settings, cap), want)


@pytest.mark.parametrize("tile_size", [16, 32])
def test_worker_count_keeps_the_bytes_on_the_binning_fixture(tile_size, monkeypatch):
    bev = BevRange(0.0, 10.0, 0.0, 9.25, 37, 40)
    splats = _adversarial_splats(bev, tile_size)
    for blend_order in BLEND_ORDERS:
        for t_min in (1e-4, 0.0):
            settings = RasterSettings(tile_size=tile_size, t_min=t_min, blend_order=blend_order)
            deepest = _deepest(splats, bev, settings)
            _force_workers(monkeypatch, 1)
            want = _composite_at(splats, bev, 1, settings, DEFAULT_MEM_CAP)
            for workers in (1, 2, 3):
                _force_workers(monkeypatch, workers)
                for cap in (DEFAULT_MEM_CAP, max(17 * deepest * workers, BIN_CANDIDATE_BYTES)):
                    _assert_same_bytes(_composite_at(splats, bev, 1, settings, cap), want)


def _spy_on_workers(monkeypatch, fail=None):
    """Run two workers, each blending its first pixel group only once the
    other has reached its own; record (thread, np.geterr()) per group.  If
    ``fail`` is given as (``"caller"`` or ``"worker"``, a function that
    raises), that thread calls it at its second group, and the other thread
    blends a second group only after that, so neither takes a third."""
    _force_workers(monkeypatch, 2)
    both, raised = threading.Barrier(2), threading.Event()
    seen = []
    blend = splat_module._blend_pixels

    def spy(*args):
        me = threading.current_thread()
        mine = sum(thread is me for thread, _ in seen)
        seen.append((me, np.geterr()))
        if mine == 0:
            both.wait(timeout=30)
        elif mine == 1 and fail is not None:
            if (me is threading.main_thread()) == (fail[0] == "caller"):
                raised.set()
                fail[1]()
            assert raised.wait(timeout=30)
            time.sleep(0.05)  # while the failing thread records its error
        return blend(*args)

    monkeypatch.setattr(splat_module, "_blend_pixels", spy)
    return seen


def _sparse_vod_scene():
    # 120 splats over the 400 tiles of the vod map: one pixel group a tile
    return generate_scene(SceneSpec(seed=70, n_points=120)), init_weights(70, c_raw=4, c=16)


def test_workers_blend_under_the_callers_errstate(monkeypatch):
    # np.errstate lives in a context variable: a plain thread would blend
    # at over='warn' and turn encode's InvalidSpec into a leaked warning
    cloud, params = _sparse_vod_scene()
    want = encode(cloud, params, VOD)
    seen = _spy_on_workers(monkeypatch)
    before = threading.active_count()
    got = encode(cloud, params, VOD)
    assert threading.active_count() == before
    _assert_same_bytes(got.data, want.data)
    assert len({thread for thread, _ in seen}) == 2
    for _, err in seen:
        assert (err["over"], err["invalid"]) == ("raise", "raise")


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_worker_overflow_surfaces_as_invalid_spec(monkeypatch, where):
    cloud, params = _sparse_vod_scene()
    # a real overflow: FloatingPointError only under encode's errstate
    seen = _spy_on_workers(monkeypatch, (where, lambda: np.exp(np.float64(1000.0))))
    before = threading.active_count()
    with pytest.raises(InvalidSpec, match="encoding overflows float64 .overflow encountered in exp"):
        encode(cloud, params, VOD)
    assert threading.active_count() == before
    assert len(seen) <= 4  # the first error stopped the queue


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_worker_error_propagates_unchanged(monkeypatch, where):
    class Injected(Exception):
        pass

    cloud, params = _sparse_vod_scene()
    injected = Injected("in a pixel group")

    def throw():
        raise injected

    _spy_on_workers(monkeypatch, (where, throw))
    before = threading.active_count()
    with pytest.raises(Injected) as caught:
        encode(cloud, params, VOD)
    assert caught.value is injected
    assert threading.active_count() == before


def test_one_channel_one_pixel_corner_tile_matches_per_object_pipeline():
    # at tile_size 16 a 33 x 33 map ends in a one-pixel tile; with one channel
    # its sum is a (K) . (K) product, which einsum would not add in order,
    # and the reference keeps zero-weight rows the exact binning drops
    bev = BevRange(0.0, 8.25, 0.0, 8.25, 33, 33)
    for seed in range(30):
        splats = _random_splats(seed, 200, bev, channels=1)
        _assert_same_bytes(rasterize(splats, bev, 1).data,
                           _ref_rasterize(splats, bev, 1, RasterSettings()))


def test_blend_sum_adds_rows_in_order():
    gen = SplitMix64(stream_seed(76, "sum"))
    # P = 1 is every one-pixel blend group
    for k, c, p in ((300, 1, 1), (64, 1, 1), (300, 2, 1), (300, 1, 2), (300, 3, 5), (0, 1, 1),
                    (1000, 1, 1), (1000, 2, 1), (64, 64, 1), (1000, 64, 1)):
        feats = gen.normals(k * c).reshape(k, c).astype(np.float32)
        weights = gen.uniforms(k * p).reshape(k, p).astype(np.float32)
        want = np.zeros((c, p), dtype=np.float32)
        for row in range(k):
            want += feats[row][:, None] * weights[row][None, :]
        _assert_same_bytes(_blend_sum(feats, weights), want)


def test_carried_transmittance_through_subnormals_matches_one_cumprod():
    # 1500 wide splats of opacity 0.5 over one 16-px tile: T = prod(1 - alpha)
    # sinks below float32's smallest normal within ~200 rows, then sticks at
    # the smallest subnormal, which times 0.52 rounds back up to itself
    bev = BevRange(0.0, 16.0, 0.0, 16.0, 16, 16)
    gen = SplitMix64(stream_seed(75, "deep"))
    splats = [_cov_splat(8.0 + 4.0 * (gen.next_f64() - 0.5), 8.0 + 4.0 * (gen.next_f64() - 0.5),
                         np.diag([400.0, 300.0]), opacity=0.5, key=i, features=gen.normals(2))
              for i in range(1500)]
    for t_min in (1e-4, 0.0, -1.0):
        settings = RasterSettings(t_min=t_min, blend_order="index")
        want = _ref_rasterize(splats, bev, 2, settings)
        _assert_same_bytes(rasterize(splats, bev, 2, settings).data, want)
        # every group size, down to one pixel, takes the same products
        for cap in (1 << 16, _one_pixel_cap(splats, bev, settings)):
            _assert_same_bytes(_composite_at(splats, bev, 2, settings, cap), want)


def test_tile_whose_rows_all_fail_alpha_min_writes_exact_zeros():
    # opacity 1.2 alpha_min gives a coverage disc of 3 sigma over six tiles,
    # but alpha reaches alpha_min only within 0.6 sigma: the mean's pixel,
    # in the one tile the exact cull keeps
    settings = RasterSettings(t_min=0.0, lambda_blur=0.0, tile_size=4)
    prim = _prim([5.5, 0.5, 0.0], scales=(1.0, 1.0, 1.0), opacity=1.2 / 255.0,
                 features=(-2.0,))
    splat = project_to_bev(prim, SMALL, lambda_blur=0.0)
    assert [i for i, t in enumerate(build_tile_grid([splat], SMALL, settings).tiles) if t] == [9]
    fmap = rasterize([splat], SMALL, channels=1, settings=settings)
    assert np.count_nonzero(fmap.data) == 1 and fmap.data[0, 8, 5] < 0
    assert not np.signbit(np.delete(fmap.data.ravel(), 8 * 16 + 5)).any()  # +0.0, not -0.0


def test_write_feature_map_bytes(tmp_path):
    bev = BevRange(0.0, 4.0, 0.0, 3.0, 3, 4)
    data = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4) - 7.5
    path = tmp_path / "m.rgfm"
    write_feature_map(BevFeatureMap(data, bev), path)
    header = b"RGFM" + struct.pack("<IIII4d", 1, 2, 3, 4, 0.0, 4.0, 0.0, 3.0)
    assert path.read_bytes() == header + data.astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# File formats


def test_feature_map_roundtrip(tmp_path):
    bev = BevRange(-2.0, 6.0, -4.0, 4.0, 8, 8)
    gen = SplitMix64(stream_seed(80, "fmap"))
    data = gen.normals(2 * 8 * 8).reshape(2, 8, 8).astype(np.float32)
    fmap = BevFeatureMap(data, bev)
    path = tmp_path / "m.rgfm"
    write_feature_map(fmap, path)
    back = read_feature_map(path)
    assert back == fmap
    assert back.bev == bev
    # canonical bytes on re-save
    second = tmp_path / "m2.rgfm"
    write_feature_map(back, second)
    assert path.read_bytes() == second.read_bytes()


def test_reading_a_feature_map_holds_it_once(tmp_path):
    # the whole file used to be read as bytes and its payload then copied
    # into the map: reading a 4 MiB map traced 8 MiB
    data = np.arange(16 * 256 * 256, dtype=np.float32).reshape(16, 256, 256)
    path = tmp_path / "m.rgfm"
    write_feature_map(BevFeatureMap(data, BevRange(0.0, 51.2, -25.6, 25.6, 256, 256)), path)
    tracemalloc.start()
    try:
        back = read_feature_map(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, data)
    assert peak < data.nbytes + (1 << 20)


def test_feature_map_cut_after_its_size_was_read_is_truncated(tmp_path, monkeypatch):
    # the size comes from fstat; a file cut before the payload is read gives a short read
    path = tmp_path / "m.rgfm"
    write_feature_map(BevFeatureMap(np.ones((1, 4, 4), dtype=np.float32),
                                    BevRange(0.0, 4.0, 0.0, 4.0, 4, 4)), path)
    full = path.stat()
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr("rgkit.splat.os.fstat", lambda fd: full)
    with pytest.raises(FormatError, match="truncated"):
        read_feature_map(path)


def test_feature_map_rejects_malformed(tmp_path):
    bev = BevRange(0.0, 4.0, 0.0, 4.0, 4, 4)
    path = tmp_path / "m.rgfm"
    write_feature_map(BevFeatureMap(np.zeros((1, 4, 4), dtype=np.float32), bev), path)
    blob = path.read_bytes()
    cases = {
        "magic": b"XXXX" + blob[4:],
        "version": blob[:4] + (9).to_bytes(4, "little") + blob[8:],
        "payload": blob[:-4],
        "header": blob[: 4 + 10],
    }
    for name, bad in cases.items():
        p = tmp_path / f"{name}.rgfm"
        p.write_bytes(bad)
        with pytest.raises(FormatError):
            read_feature_map(p)


def test_pgm_export(tmp_path):
    bev = BevRange(0.0, 2.0, 0.0, 1.0, 1, 2)
    data = np.array([[[1.0, 3.0]]], dtype=np.float32)
    path = tmp_path / "m.pgm"
    write_pgm(BevFeatureMap(data, bev), 0, path)
    blob = path.read_bytes()
    assert blob == b"P5\n2 1\n255\n" + bytes([0, 255])
    flat = tmp_path / "flat.pgm"
    write_pgm(BevFeatureMap(np.zeros((1, 1, 2), dtype=np.float32), bev), 0, flat)
    assert flat.read_bytes().endswith(bytes([0, 0]))
    with pytest.raises(InvalidSpec):
        write_pgm(BevFeatureMap(data, bev), 1, path)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_pgm_export_refuses_a_non_finite_channel_before_opening_the_file(tmp_path, value):
    # +-inf leaked RuntimeWarnings in the min-max scale, and NaN wrote an
    # all-black image; the other channel still exports
    data = np.array([[[1.0, 3.0]], [[1.0, value]]], dtype=np.float32)
    fmap = BevFeatureMap(data, BevRange(0.0, 2.0, 0.0, 1.0, 1, 2))
    path = tmp_path / "m.pgm"
    with pytest.raises(InvalidSpec, match="channel 1 holds a non-finite value"):
        write_pgm(fmap, 1, path)
    assert not path.exists()
    write_pgm(fmap, 0, path)
    assert path.read_bytes().endswith(bytes([0, 255]))
