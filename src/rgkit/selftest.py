"""Fast end-to-end self-check battery.

Each check is a named function that raises ``AssertionError`` with a
diagnostic message on failure.  ``run_selftest`` executes all of them on
reduced problem sizes, reports one line per check, and returns overall
success.  The full battery is deterministic and finishes well inside a
minute on a laptop core.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

import numpy as np

from . import aggregation, bench, boxloss, rng, splat
from .config import (BevRange, RasterSettings, RunConfig, apply_preset, apply_updates,
                     dump_config, parse_config_text)
from .geom import mat3_inverse, quat_normalize, quat_to_rotmat
from .pointcloud import PointCloud, SceneSpec, generate_scene, read_cloud, write_cloud


def _check_rng_trace() -> None:
    seed = rng.stream_seed(0, "selftest")
    gen = rng.SplitMix64(seed)
    block = gen.u64(5)
    gen2 = rng.SplitMix64(seed)
    singles = [gen2.next_u64() for _ in range(5)]
    assert block.tolist() == singles, "vectorized u64 stream != scalar stream"
    floats = rng.unit_floats(block)
    assert np.all((floats >= 0.0) & (floats < 1.0)), "unit floats out of [0, 1)"
    assert floats.tolist() == [u * 2.0**-53 for u in (int(b) >> 11 for b in block)], (
        "unit float mapping drifted from (u64 >> 11) * 2^-53"
    )


def _check_geom() -> None:
    gen = rng.SplitMix64(rng.stream_seed(1, "geom"))
    for _ in range(20):
        quat = quat_normalize(gen.normals(4))
        rot = quat_to_rotmat(quat)
        err = np.max(np.abs(rot @ rot.T - np.eye(3)))
        assert err < 1e-12, f"rotation not orthogonal: {err:.3g}"
        spd = rot @ np.diag(1.0 + gen.uniforms(3)) @ rot.T
        inv = mat3_inverse(spd)
        err = np.max(np.abs(inv @ spd - np.eye(3)))
        assert err < 1e-10, f"3x3 inverse error {err:.3g}"


def _check_scene_roundtrip() -> None:
    spec = SceneSpec(seed=7, n_points=64)
    cloud = generate_scene(spec)
    again = generate_scene(spec)
    assert cloud == again, "scene generation not deterministic"
    with tempfile.TemporaryDirectory() as tmp:
        for binary in (False, True):
            path = os.path.join(tmp, "c.rgpc" if binary else "c.csv")
            write_cloud(cloud, path, binary=binary)
            back = read_cloud(path)
            if binary:
                assert back == cloud, "binary round trip not bit-exact"
            else:
                assert np.allclose(back.positions, cloud.positions, rtol=0, atol=0), (
                    "text round trip changed positions"
                )


def _check_lfa_equivalence() -> None:
    cloud = generate_scene(SceneSpec(seed=3, n_points=400))
    layer = aggregation.init_weights(3, c_raw=cloud.c_raw, c=32).lfa
    reference = aggregation.lfa_traversal(cloud, layer, 0.32)
    for name, fn in (
        ("broadcast_mask", aggregation.lfa_broadcast_mask),
        ("index_scatter", aggregation.lfa_index_scatter),
    ):
        diff = float(np.max(np.abs(fn(cloud, layer, 0.32) - reference)))
        assert diff <= bench.GATE_TOL, f"{name} deviates from traversal by {diff:.3g}"


def _check_neighbor_index() -> None:
    cloud = generate_scene(SceneSpec(seed=4, n_points=200))
    index = aggregation.build_neighbor_index(cloud, 0.5)
    pairs = set(zip(index.row_idx.tolist(), index.col_idx.tolist()))
    for i in range(len(cloud)):
        assert (i, i) in pairs, f"self pair missing for point {i}"
    assert all((j, i) in pairs for i, j in pairs), "neighbor relation not symmetric"
    # cells count from the cloud, not from the origin: 5000 km away the
    # same cloud has the same cells, candidates and pairs
    far = aggregation.build_neighbor_index(PointCloud(cloud.positions + 5e6, cloud.features), 0.5)
    assert far.n_candidates == index.n_candidates, (
        f"{far.n_candidates} neighbor candidates 5000 km away, {index.n_candidates} at the origin")
    assert np.array_equal(far.row_idx, index.row_idx) and np.array_equal(
        far.col_idx, index.col_idx), "neighbor pairs change 5000 km away"


def _check_gfa_equivariance() -> None:
    cloud = generate_scene(SceneSpec(seed=5, n_points=96))
    params = aggregation.init_weights(5, c_raw=cloud.c_raw, c=32, n_heads=4)
    out = aggregation.gfa(cloud, params.attn)
    perm = np.argsort(rng.SplitMix64(rng.stream_seed(5, "perm")).uniforms(len(cloud)))
    shuffled = PointCloud(cloud.positions[perm], cloud.features[perm])
    out_perm = aggregation.gfa(shuffled, params.attn)
    diff = float(np.max(np.abs(out_perm - out[perm])))
    assert diff <= 1e-9, f"attention not permutation-equivariant: {diff:.3g}"


def _check_predicted_attributes() -> None:
    cloud = generate_scene(SceneSpec(seed=6, n_points=50))
    params = aggregation.init_weights(6, c_raw=cloud.c_raw, c=32)
    f_lfa = aggregation.lfa_index_scatter(cloud, params.lfa, params.r)
    f_gfa = aggregation.gfa(cloud, params.attn)
    n = len(cloud)
    scales, quats, feats = aggregation.predict_attribute_arrays(cloud, f_lfa, f_gfa,
                                                                params.head, params.s_min)
    shapes = scales.shape, quats.shape, feats.shape
    assert shapes == ((n, 3), (n, 4), (n, params.feature_dim)), f"attribute shapes {shapes}"
    assert np.all(scales >= params.s_min), "scale below floor"
    err = float(np.max(np.abs(np.linalg.norm(quats, axis=1) - 1.0)))
    assert err < 1e-12, f"quaternion norm off 1 by {err:.3g}"


def _check_raster_oracle() -> None:
    bev = BevRange(0.0, 16.0, -8.0, 8.0, 64, 64)
    settings = RasterSettings(t_min=0.0)
    mean2d, inv, opacity, feats = _random_splats(seed=8, count=80, bev=bev, settings=settings)
    tiled = splat._composite(mean2d, inv, opacity, feats, bev, settings)
    oracle = splat.rasterize_oracle(mean2d, inv, opacity, feats, bev, settings)
    diff = float(np.max(np.abs(tiled.data.astype(np.float64) - oracle.data.astype(np.float64))))
    assert diff <= 1e-4, f"tiled rasterizer deviates from oracle by {diff:.3g}"


def _random_splats(*, seed: int, count: int, bev: BevRange, settings: RasterSettings) -> tuple:
    """Blend-ordered means, inverse covariances, opacities and 3 features
    of ``count`` random Gaussians projected onto ``bev``."""
    gen = rng.SplitMix64(rng.stream_seed(seed, "splats"))
    low = (bev.x_min, bev.y_min, -1.0)
    span = (bev.x_max - bev.x_min, bev.y_max - bev.y_min, 2.0)
    means = low + gen.uniforms(3 * count).reshape(count, 3) * span
    scales = 0.2 + gen.uniforms(3 * count).reshape(count, 3)
    quats = gen.normals(4 * count).reshape(count, 4)
    opacity = 0.3 + 0.69 * gen.uniforms(count)
    feats = gen.normals(3 * count).reshape(count, 3)
    mean2d, _, inv = splat._project(means, scales, quats, bev, settings.lambda_blur)
    o = splat._blend_order(means[:, 2], np.arange(count), settings.blend_order)
    return mean2d[o], inv[o], opacity[o], feats[o]


def _check_blend_analytic() -> None:
    bev = BevRange(0.0, 16.0, -8.0, 8.0, 16, 16)
    mean2d, _, inv = splat._project(np.array([[8.5, 0.5, 0.0]]), np.full((1, 3), 0.5),
                                    np.array([[1.0, 0.0, 0.0, 0.0]]), bev, 0.0)
    one, feats = np.ones(1), np.array([[2.0]])
    settings = RasterSettings(t_min=0.0, lambda_blur=0.0)
    want = 0.99 * 2.0
    for name, fmap in (("tiled", splat._composite(mean2d, inv, one, feats, bev, settings)),
                       ("oracle", splat.rasterize_oracle(mean2d, inv, one, feats, bev, settings))):
        got = float(fmap.data[0, 8, 8])
        assert abs(got - want) <= 1e-6 * abs(want), f"{name} single splat center {got} != {want}"


def _check_density_vs_pillar() -> None:
    cfg = RunConfig(c=32, seed=11)
    bev = cfg.bev()
    cloud = generate_scene(SceneSpec(seed=11, n_points=300, bev=bev))
    fmap = splat.encode(cloud, aggregation.init_weights(11, c_raw=cloud.c_raw, c=32),
                        bev, cfg.raster_settings())
    dense = splat.nonzero_pixels(fmap)
    sparse = splat.nonzero_pixels(splat.pillar_scatter(cloud, bev))
    assert dense > sparse, f"splatting not denser than pillars: {dense} <= {sparse}"


def _check_chunking_invariance() -> None:
    # at a 10 m scale floor each of the 30 splats reaches every tile of the
    # 64 x 64 map, so one pixel's blend buffers of the 30 fill the cap in
    # every tile, and the cap holds one (splat, tile) candidate but not two
    bev = BevRange(0.0, 16.0, -8.0, 8.0, 64, 64)
    cloud = generate_scene(SceneSpec(seed=16, n_points=30, bev=bev))
    params = aggregation.init_weights(16, c_raw=cloud.c_raw, c=8, s_min=10.0)
    cap = splat.BLEND_ENTRY_BYTES * len(cloud)
    assert splat.BIN_CANDIDATE_BYTES <= cap < 2 * splat.BIN_CANDIDATE_BYTES, (
        f"a cap of {cap} bytes does not hold exactly one binning candidate")
    want = splat.encode(cloud, params, bev)
    got = splat.encode(cloud, params, bev, mem_cap=cap)
    assert got.data.tobytes() == want.data.tobytes(), (
        "map changes with one-pixel blend groups and one-candidate bin blocks")


def _check_worker_invariance() -> None:
    # hundreds of splats per tile: one worker and two must write the same
    # bytes, the worker count being whatever the CPUs allow otherwise
    cfg = apply_preset(RunConfig(), "tj4d")
    bev = cfg.bev()
    cloud = generate_scene(SceneSpec(seed=17, n_points=1000, n_clusters=4, cluster_sigma=0.5,
                                     bev=bev, z_min=cfg.z_min, z_max=cfg.z_max))
    params = aggregation.init_weights(17, c_raw=cloud.c_raw, c=16)
    pick = splat._worker_count
    maps = []
    try:
        for workers in (1, 2):
            splat._worker_count = lambda *args, workers=workers: workers
            maps.append(splat.encode(cloud, params, bev).data.tobytes())
    finally:
        splat._worker_count = pick
    assert maps[0] == maps[1], "map changes between one compositing worker and two"


def _check_kl_exact() -> None:
    eye = boxloss.GaussianDistribution3D(np.zeros(3), np.eye(3))
    assert boxloss.kl_divergence(eye, eye).total == 0.0, "self-KL not exactly 0"
    shifted = boxloss.GaussianDistribution3D(np.array([1.0, 0.0, 0.0]), np.eye(3))
    assert boxloss.kl_divergence(shifted, eye).total == 0.5, "unit-shift KL != 1/2"
    wide = boxloss.GaussianDistribution3D(np.zeros(3), 4.0 * np.eye(3))
    want = 0.5 * (9.0 - 6.0 * math.log(2.0))
    got = boxloss.kl_divergence(wide, eye).total
    assert abs(got - want) <= 1e-12, f"4I KL {got} != {want}"


def _check_a_invariance() -> None:
    gen = rng.SplitMix64(rng.stream_seed(12, "ainv"))
    for _ in range(25):
        pred = _random_box(gen)
        gt = _random_box(gen)
        totals = [boxloss.kl_divergence(boxloss.box_to_gaussian(pred, a),
                                        boxloss.box_to_gaussian(gt, a)).total
                  - 0.5 * float((pred.as_array()[:3] - gt.as_array()[:3])
                                @ mat3_inverse(boxloss.box_to_gaussian(gt, a).sigma)
                                @ (pred.as_array()[:3] - gt.as_array()[:3]))
                  for a in (0.5, 1.0, 3.0)]
        spread = float(np.ptp(totals))  # NaN-propagating, unlike max and min
        assert spread <= 1e-10, f"shape term varies with a: {spread:.3g}"


def _random_box(gen: rng.SplitMix64) -> "boxloss.Box3D":
    pos = gen.normals(3) * 2.0
    dims = 0.5 + gen.uniforms(3) * 3.0
    theta = (gen.next_f64() * 2.0 - 1.0) * math.pi
    return boxloss.Box3D(pos[0], pos[1], pos[2], dims[0], dims[1], dims[2], theta)


def _check_bgl_gradient() -> None:
    gen = rng.SplitMix64(rng.stream_seed(13, "grad"))
    rel = []
    for _ in range(50):
        pred = _random_box(gen)
        gt = _random_box(gen)
        analytic = boxloss.bgl_gradient(pred, gt, a=1.0)
        numeric = boxloss.fd_gradient(pred, gt, a=1.0)
        rel.append(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic)))
    worst = float(np.max(rel))  # NaN-propagating, unlike max
    assert worst <= boxloss.GRAD_CHECK_TOL, f"analytic gradient off by rel {worst:.3g}"


def _check_weights_roundtrip() -> None:
    params = aggregation.init_weights(14, c_raw=4, c=32, n_heads=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.rgwt")
        aggregation.save_weights(params, path)
        again = aggregation.load_weights(path)
    for attr in ("weight", "bias"):
        assert np.array_equal(getattr(params.lfa, attr), getattr(again.lfa, attr)), (
            "aggregation layer weights changed in round trip"
        )
    assert params.r == again.r and params.s_min == again.s_min, "metadata changed"


def _check_config_roundtrip() -> None:
    cfg = RunConfig(r=1.25, a_default=0.75)
    cfg.a_per_class["bus"] = 2.5
    text = dump_config(cfg)
    back = apply_updates(RunConfig(), parse_config_text(text))
    assert back == cfg, "config dump/parse is not the identity"
    assert dump_config(back) == text, "config dump not canonical"


def _check_feature_map_io() -> None:
    bev = BevRange(0.0, 8.0, -4.0, 4.0, 16, 16)
    gen = rng.SplitMix64(rng.stream_seed(15, "fmap"))
    data = gen.normals(3 * 16 * 16).reshape(3, 16, 16).astype(np.float32)
    fmap = splat.BevFeatureMap(data=data, bev=bev)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.rgfm")
        splat.write_feature_map(fmap, path)
        back = splat.read_feature_map(path)
        assert back == fmap, "feature map round trip not bit-exact"
        pgm = os.path.join(tmp, "m.pgm")
        splat.write_pgm(fmap, 0, pgm)
        with open(pgm, "rb") as fh:
            head = fh.read(2)
        assert head == b"P5", "feature map preview is not binary PGM"


CHECKS = (
    ("rng-trace", _check_rng_trace),
    ("geometry", _check_geom),
    ("scene-roundtrip", _check_scene_roundtrip),
    ("lfa-equivalence", _check_lfa_equivalence),
    ("neighbor-index", _check_neighbor_index),
    ("gfa-equivariance", _check_gfa_equivariance),
    ("predicted-attributes", _check_predicted_attributes),
    ("raster-oracle", _check_raster_oracle),
    ("blend-analytic", _check_blend_analytic),
    ("density-vs-pillar", _check_density_vs_pillar),
    ("chunking-invariance", _check_chunking_invariance),
    ("worker-invariance", _check_worker_invariance),
    ("kl-exact", _check_kl_exact),
    ("a-invariance", _check_a_invariance),
    ("bgl-gradient", _check_bgl_gradient),
    ("weights-roundtrip", _check_weights_roundtrip),
    ("config-roundtrip", _check_config_roundtrip),
    ("feature-map-io", _check_feature_map_io),
)


def run_selftest(emit=print) -> bool:
    """Run every check; emit one line each; return overall success."""
    all_ok = True
    started = time.perf_counter()
    for name, check in CHECKS:
        t0 = time.perf_counter()
        try:
            check()
        except AssertionError as exc:
            all_ok = False
            emit(f"FAIL {name}: {exc}")
        else:
            emit(f"ok   {name} ({(time.perf_counter() - t0) * 1e3:.1f} ms)")
    emit(f"{'all checks passed' if all_ok else 'SELFTEST FAILED'} "
         f"({time.perf_counter() - started:.2f} s)")
    return all_ok
