"""The benchmark's checks accept the program's outputs and reject a single
corrupted value."""

import numpy as np
import pytest

import checks
import rgkit
import workloads


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(5)
    n = 80
    pos = np.column_stack([rng.uniform(2, 6, n), rng.uniform(-2, 2, n), rng.uniform(-1, 1, n)])
    feats = rng.uniform(-1, 1, (n, 4))
    cloud = rgkit.PointCloud(pos, feats)
    bev = rgkit.BevRange(0.0, 8.0, -4.0, 4.0, 48, 48)
    settings = rgkit.RasterSettings()
    params = rgkit.init_weights(0, c_raw=4, c=8, r=0.5)
    f_lfa = rgkit.lfa_index_scatter(cloud, params.lfa, params.r)
    f_gfa = rgkit.gfa(cloud, params.attn)
    prims = rgkit.predict_attributes(cloud, f_lfa, f_gfa, params.head, params.s_min)
    fmap = rgkit.encode(cloud, params, bev, settings, threads=1)
    return dict(cloud=cloud, pos=pos, feats=feats, bev=bev, settings=settings, params=params,
                f_lfa=f_lfa, f_gfa=f_gfa, splats=checks.project(prims, bev, settings), fmap=fmap)


def test_every_pixel_of_the_map_matches_the_composite(frame):
    bev = frame["bev"]
    pixels = [(r, c) for r in range(bev.h) for c in range(bev.w)]
    assert checks.check_pixels(frame["fmap"].data, frame["splats"], frame["settings"], pixels) == []


def test_one_corrupted_pixel_in_the_densest_tile_fails(frame):
    data = frame["fmap"].data.copy()
    pixels = checks.sample_pixels(data, frame["splats"], frame["bev"], frame["settings"],
                                  np.random.default_rng(0))
    assert checks.check_pixels(data, frame["splats"], frame["settings"], pixels) == []
    counts = checks.coverage_counts(frame["splats"], frame["bev"], frame["settings"])
    ty, tx = np.unravel_index(int(np.argmax(counts)), counts.shape)
    ts = frame["settings"].tile_size
    row, col = ty * ts + ts // 2, tx * ts + ts // 2
    assert (row, col) in pixels
    data[3, row, col] += np.float32(1e-3) * max(1.0, abs(float(data[3, row, col])))
    fails = checks.check_pixels(data, frame["splats"], frame["settings"], pixels)
    assert len(fails) == 1 and f"({row},{col})" in fails[0]


def test_lfa_and_gfa_rows_match_and_a_corrupted_entry_fails(frame):
    rows = list(range(0, 80, 7))
    p = frame["params"]
    lfa = checks.lfa_rows(frame["pos"], frame["feats"], p.lfa, p.r, rows)
    gfa = checks.gfa_rows(frame["feats"], p.attn, rows)
    assert lfa and len(gfa) == len(rows)
    assert checks.check_rows("lfa", frame["f_lfa"], lfa) == []
    assert checks.check_rows("gfa", frame["f_gfa"], gfa) == []
    for name, program, expected in (("lfa", frame["f_lfa"], lfa), ("gfa", frame["f_gfa"], gfa)):
        bad = program.copy()
        i = next(iter(expected))
        bad[i, 2] += 1e-7
        assert len(checks.check_rows(name, bad, expected)) == 1


def test_neighbour_count_within_kd_tree_bounds(frame):
    count = len(rgkit.build_neighbor_index(frame["cloud"], frame["params"].r))
    lo, hi = checks.neighbor_pair_bounds(frame["pos"], frame["params"].r)
    assert lo <= count <= hi and count > len(frame["pos"])


def test_points_hit_no_more_pixels_than_the_map_covers(frame):
    hit = checks.distinct_hit_pixels(frame["pos"], frame["bev"])
    assert 0 < hit <= rgkit.nonzero_pixels(frame["fmap"])


def test_rgfm_check_reads_back_the_map_and_rejects_one_flipped_byte(frame, tmp_path):
    path = tmp_path / "map.rgfm"
    rgkit.write_feature_map(frame["fmap"], path)
    assert checks.rgfm_matches(path, frame["fmap"].data, frame["bev"])
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0x01
    path.write_bytes(bytes(blob))
    assert not checks.rgfm_matches(path, frame["fmap"].data, frame["bev"])


@pytest.fixture(scope="module")
def boxes():
    spec = workloads.BoxWorkload(batches=1, class_counts=(("car", 20), ("pedestrian", 20)))
    pred, gt, classes = workloads.make_box_batches(spec, np.random.default_rng(3))[0]
    cfg = rgkit.RunConfig().bgl_config()
    a = np.array([cfg.a_for(c) for c in classes])
    p_boxes = [rgkit.Box3D(*row) for row in pred.tolist()]
    g_boxes = [rgkit.Box3D(*row) for row in gt.tolist()]
    kls = np.array([
        rgkit.kl_divergence(rgkit.box_to_gaussian(p, ai), rgkit.box_to_gaussian(t, ai)).total
        for p, t, ai in zip(p_boxes, g_boxes, a)
    ])
    grads = np.array([rgkit.bgl_gradient(p, t, ai) for p, t, ai in zip(p_boxes, g_boxes, a)])
    loss = rgkit.bgl(p_boxes, g_boxes, classes, cfg)
    return dict(pred=pred, gt=gt, a=a, kls=kls, grads=grads, loss=loss)


def test_kl_values_match_and_one_corrupted_or_negative_value_fails(boxes):
    expected = checks.kl_reference(boxes["pred"], boxes["gt"], boxes["a"])
    assert checks.check_kls(boxes["kls"], expected) == []
    bad = boxes["kls"].copy()
    bad[7] += 1e-6
    assert len(checks.check_kls(bad, expected)) == 1
    bad = boxes["kls"].copy()
    bad[7] = -bad[7]
    assert len(checks.check_kls(bad, expected)) >= 1
    assert checks.check_mean(boxes["loss"], expected) == []
    assert len(checks.check_mean(boxes["loss"] * (1 + 1e-6), expected)) == 1


def test_gradients_match_and_one_corrupted_component_fails(boxes):
    sample = range(len(boxes["pred"]))
    args = (boxes["pred"], boxes["gt"], boxes["a"], sample)
    assert checks.check_gradients(boxes["grads"], *args) == []
    bad = boxes["grads"].copy()
    bad[11, 6] += 1e-4 * max(1.0, abs(bad[11, 6]))
    fails = checks.check_gradients(bad, *args)
    assert len(fails) == 1 and "pair 11 component 6" in fails[0]
