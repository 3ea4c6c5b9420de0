"""Point-cloud model, deterministic scene synthesis, and cloud file I/O."""

import numpy as np
import pytest

from rgkit.errors import FormatError, InvalidSpec, ShapeMismatch
from rgkit.pointcloud import (
    BevRange,
    PointCloud,
    SceneSpec,
    generate_scene,
    read_cloud,
    write_cloud,
)
from rgkit.rng import SplitMix64, boxmuller, stream_seed


def test_cloud_shape_validation():
    with pytest.raises(ShapeMismatch):
        PointCloud(np.zeros((4, 2)), np.zeros((4, 1)))
    with pytest.raises(ShapeMismatch):
        PointCloud(np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(ShapeMismatch):
        PointCloud(np.zeros((4, 3)), np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cloud_rejects_non_finite_values(bad):
    pos = np.zeros((2, 3))
    pos[1, 0] = bad
    with pytest.raises(InvalidSpec):
        PointCloud(pos, np.zeros((2, 1)))
    feats = np.zeros((2, 1))
    feats[0, 0] = bad
    with pytest.raises(InvalidSpec):
        PointCloud(np.zeros((2, 3)), feats)


def test_cloud_is_immutable_and_copies_input():
    pos = np.ones((2, 3))
    cloud = PointCloud(pos, np.zeros((2, 1)))
    pos[0, 0] = 99.0  # mutating the source must not reach the cloud
    assert cloud.positions[0, 0] == 1.0
    with pytest.raises(ValueError):
        cloud.positions[0, 0] = 5.0


def test_cloud_views_and_equality():
    cloud = PointCloud([[1, 2, 3], [4, 5, 6]], [[7, 8], [9, 10]])
    assert len(cloud) == 2 and cloud.c_raw == 2
    assert cloud == PointCloud([[1, 2, 3], [4, 5, 6]], [[7, 8], [9, 10]])
    assert cloud != PointCloud([[1, 2, 3], [4, 5, 7]], [[7, 8], [9, 10]])


def test_bev_range_validation_and_density():
    bev = BevRange(0.0, 51.2, -25.6, 25.6, 320, 320)
    assert bev.px_per_m_x == 6.25 and bev.px_per_m_y == 6.25
    with pytest.raises(InvalidSpec):
        BevRange(1.0, 1.0, 0.0, 2.0, 8, 8)
    with pytest.raises(InvalidSpec):
        BevRange(0.0, 1.0, 0.0, 2.0, 0, 8)
    with pytest.raises(InvalidSpec):
        BevRange(0.0, float("inf"), 0.0, 2.0, 8, 8)


@pytest.mark.parametrize("extents", [(-1e308, 1e308, 0.0, 2.0), (0.0, 2.0, -1e308, 1e308),
                                     (-1.7e308, 1.7e308, -1.7e308, 1.7e308)])
def test_bev_range_rejects_an_infinite_span(extents):
    # finite extents whose span overflows gave 0 px per meter: a degenerate map
    with pytest.raises(InvalidSpec, match="span"):
        BevRange(*extents, 8, 8)


def test_scene_spec_validation():
    with pytest.raises(InvalidSpec):
        SceneSpec(seed=0, n_points=-1)
    with pytest.raises(InvalidSpec):
        SceneSpec(seed=0, n_points=1, n_clusters=0)
    with pytest.raises(InvalidSpec):
        SceneSpec(seed=0, n_points=1, cluster_sigma=-0.5)
    with pytest.raises(InvalidSpec):
        SceneSpec(seed=0, n_points=1, z_min=2.0, z_max=2.0)


def test_generate_scene_deterministic_and_in_bounds():
    spec = SceneSpec(seed=123, n_points=500)
    a, b = generate_scene(spec), generate_scene(spec)
    assert a == b
    assert len(a) == 500 and a.c_raw == 4
    bev = spec.bev
    assert np.all((a.positions[:, 0] >= bev.x_min) & (a.positions[:, 0] <= bev.x_max))
    assert np.all((a.positions[:, 1] >= bev.y_min) & (a.positions[:, 1] <= bev.y_max))
    assert np.all((a.positions[:, 2] >= spec.z_min) & (a.positions[:, 2] <= spec.z_max))
    assert np.all((a.features >= -1.0) & (a.features < 1.0))
    assert generate_scene(SceneSpec(seed=124, n_points=500)) != a


def test_generate_scene_first_point_rederived_from_raw_stream():
    """Re-derive point 0 from the documented draw order with nothing but
    the raw generator, proving the synthesis contract."""
    spec = SceneSpec(seed=9, n_points=3, c_raw=2, n_clusters=4, cluster_sigma=0.7)
    cloud = generate_scene(spec)

    stream = SplitMix64(stream_seed(9, "scene"))
    lo = np.array([spec.bev.x_min, spec.bev.y_min, spec.z_min])
    hi = np.array([spec.bev.x_max, spec.bev.y_max, spec.z_max])
    centers = lo + stream.uniforms(12).reshape(4, 3) * (hi - lo)
    u = stream.uniforms(3 * 9).reshape(3, 9)

    pick = min(int(u[0, 0] * 4), 3)
    offset = 0.7 * boxmuller(u[0, [1, 3, 5]], u[0, [2, 4, 6]])
    want_pos = np.clip(centers[pick] + offset, lo, hi)
    want_feat = 2.0 * u[0, 7:] - 1.0
    assert np.array_equal(cloud.positions[0], want_pos)
    assert np.array_equal(cloud.features[0], want_feat)


def test_generate_scene_zero_points():
    cloud = generate_scene(SceneSpec(seed=1, n_points=0, c_raw=3))
    assert len(cloud) == 0 and cloud.c_raw == 3


@pytest.mark.parametrize("binary", [False, True])
def test_cloud_roundtrip(tmp_path, binary):
    cloud = generate_scene(SceneSpec(seed=5, n_points=40, c_raw=3))
    path = tmp_path / ("c.rgpc" if binary else "c.csv")
    write_cloud(cloud, path, binary=binary)
    assert read_cloud(path) == cloud  # 17 significant digits are lossless


def test_cloud_roundtrip_empty(tmp_path):
    cloud = PointCloud(np.zeros((0, 3)), np.zeros((0, 4)))
    for binary, name in ((False, "e.csv"), (True, "e.rgpc")):
        path = tmp_path / name
        write_cloud(cloud, path, binary=binary)
        back = read_cloud(path)
        assert len(back) == 0 and back.c_raw == 4


def test_text_format_shape(tmp_path):
    cloud = PointCloud([[1.5, -2.0, 0.25]], [[0.125]])
    path = tmp_path / "c.csv"
    write_cloud(cloud, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# c_raw=1"
    assert lines[1] == "1.5,-2,0.25,0.125"


def test_binary_format_header(tmp_path):
    cloud = PointCloud([[1.0, 2.0, 3.0]], [[4.0, 5.0]])
    path = tmp_path / "c.rgpc"
    write_cloud(cloud, path, binary=True)
    blob = path.read_bytes()
    assert blob[:4] == b"RGPC"
    assert int.from_bytes(blob[4:8], "little") == 1  # version
    assert int.from_bytes(blob[8:12], "little") == 1  # points
    assert int.from_bytes(blob[12:16], "little") == 2  # channels
    assert len(blob) == 16 + 5 * 8


class _ManyPoints:
    """Stands in for a cloud of 2^32 points, which no test can hold."""

    c_raw = 1

    def __len__(self):
        return 2 ** 32


def test_binary_write_refuses_counts_past_u32_and_leaves_no_file(tmp_path):
    # the counts used to be packed unchecked: a raw struct.error after the
    # magic bytes were already written
    path = tmp_path / "c.rgpc"
    for cloud in (PointCloud(np.zeros((0, 3)), np.zeros((0, 2 ** 32))), _ManyPoints()):
        with pytest.raises(FormatError, match="u32"):
            write_cloud(cloud, path, binary=True)
        assert not path.exists()
    edge = PointCloud(np.zeros((0, 3)), np.zeros((0, 2 ** 32 - 1)))
    write_cloud(edge, path, binary=True)
    assert read_cloud(path).c_raw == 2 ** 32 - 1


def test_text_cloud_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("# c_raw=1\n\n1,2,3,4\n   \n\n5,6,7,8\n\n")
    assert read_cloud(path) == PointCloud([[1.0, 2.0, 3.0], [5.0, 6.0, 7.0]], [[4.0], [8.0]])


def test_read_rejects_malformed(tmp_path):
    cases = {
        "trunc.rgpc": b"RGPC\x01\x00",
        "version.rgpc": b"RGPC" + (2).to_bytes(4, "little") + (0).to_bytes(8, "little"),
        "payload.rgpc": b"RGPC" + b"\x01\x00\x00\x00" + (1).to_bytes(4, "little")
        + (1).to_bytes(4, "little") + b"\x00" * 8,
        "noheader.csv": b"1,2,3\n",
        "badcount.csv": b"# c_raw=x\n",
        "negcount.csv": b"# c_raw=-1\n",
        "columns.csv": b"# c_raw=2\n1,2,3\n",
        "numeric.csv": b"# c_raw=0\n1,2,zzz\n",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_cloud(path)
