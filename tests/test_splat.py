"""Projection, tile rasterizer vs. brute force, analytic blending values,
pillar baseline, encoder determinism, and map file formats."""

import math

import numpy as np
import pytest

from rgkit.aggregation import GaussianPrimitive3D, init_weights
from rgkit.errors import (
    FormatError,
    InvalidSpec,
    ShapeMismatch,
    SingularCovariance,
)
from rgkit.geom import quat_normalize
from rgkit.pointcloud import BevRange, PointCloud, SceneSpec, generate_scene
from rgkit.rng import SplitMix64, stream_seed
from rgkit.splat import (
    BevFeatureMap,
    RasterSettings,
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


def test_nonzero_pixels_counts_any_channel():
    data = np.zeros((2, 3, 3), dtype=np.float32)
    data[0, 0, 0] = 1.0
    data[1, 0, 0] = 2.0  # same pixel, second channel
    data[1, 2, 2] = -1.0
    fmap = BevFeatureMap(data, BevRange(0, 3, 0, 3, 3, 3))
    assert nonzero_pixels(fmap) == 2


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
