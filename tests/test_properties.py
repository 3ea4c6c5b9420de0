"""Property tests of the input contract: on adversarial values,
``read_boxes``, ``bgl``, ``bgl_gradient`` and ``encode`` return a finite
result, ``load_weights`` returns a parameter set, ``read_cloud`` a valid
cloud, or they raise a typed ``RgkError``, and ``rgk bgl``, ``rgk encode``,
``rgk generate`` and ``rgk bench-lfa`` exit 0, 2, 3 or 4, never 1, also
at sizes far past their allocation caps; ``read_feature_map`` returns a
map of the stated shape or raises a typed ``RgkError``.  Config text,
``--set`` values and config files give a ``RunConfig`` whose dump parses
back to it, or a typed ``RgkError`` (``rgk ... --dump-config`` exits 0, 2
or 3).  A leaked NumPy
``RuntimeWarning`` fails these tests too (see pyproject).  The neighbour
index equals the brute-force distance kernel on clouds placed on and
around cell boundaries.  Hand-made splats are refused with
``SingularCovariance`` or composite to the float64 oracle's map, and
binning keeps exactly the (splat, tile) pairs that its exact test keeps
on every tile."""

import contextlib
import io
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rgkit.aggregation import (
    PgeParams,
    build_neighbor_index,
    init_weights,
    load_weights,
    save_weights,
)
from rgkit.boxloss import BglConfig, Box3D, bgl, bgl_gradient, read_boxes, write_boxes
from rgkit.cli import main
from rgkit.config import RunConfig, apply_updates, dump_config, load_config, parse_config_text
from rgkit.errors import RgkError, SingularCovariance
from rgkit.pointcloud import BevRange, PointCloud, read_cloud
from rgkit.splat import (
    BLEND_ORDERS,
    MAX_MAP_BYTES,
    BevFeatureMap,
    RasterSettings,
    _composite,
    encode,
    rasterize_oracle,
    read_feature_map,
)
from test_splat import assert_bins_exact_test_pairs

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])

#: finite floats of every magnitude, biased toward edges of the box contract
finite = st.one_of(
    st.floats(-100.0, 100.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-3, 5e-324, 1e-200, 1e77, 1e154, 1e300,
                     1.7976931348623157e308, -1.7976931348623157e308, math.pi]),
)
sharpness = st.one_of(st.sampled_from([1.0, 3.0, 0.0, -1.0, math.inf, math.nan]),
                      st.floats())
boxes = st.builds(Box3D, finite, finite, finite, finite, finite, finite, finite)


@_SETTINGS
@given(st.lists(st.tuples(boxes, boxes), min_size=1, max_size=4), sharpness)
def test_bgl_is_finite_or_a_typed_error(pairs, a):
    pred, gt = [p for p, _ in pairs], [t for _, t in pairs]
    try:
        mean = bgl(pred, gt, None, BglConfig({}, a))
    except RgkError:
        return
    assert math.isfinite(mean)


@_SETTINGS
@given(boxes, boxes, sharpness)
def test_bgl_gradient_is_finite_or_a_typed_error(pred, gt, a):
    try:
        grad = bgl_gradient(pred, gt, a)
    except RgkError:
        return
    assert grad.shape == (7,) and np.all(np.isfinite(grad))


@_SETTINGS
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(st.sampled_from(["1", "-2.5", "1e308", "nan", "inf", "1e-400", "",
                                       " 3 ", "car", "x", "0x10", "1_0", "é"]),
                      max_size=9).map(",".join), max_size=5)
    .map(lambda rows: ("x,y,z,l,w,h,theta\n" + "\n".join(rows)).encode()),
))
def test_read_boxes_returns_boxes_or_a_typed_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "boxes.csv"
        path.write_bytes(blob)
        try:
            boxes, classes = read_boxes(path)
        except RgkError:
            return
    assert all(isinstance(b, Box3D) for b in boxes)
    assert classes is None or len(classes) == len(boxes)


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(boxes, boxes, st.sampled_from(["car", "pedestrian", "bus"])),
                min_size=1, max_size=3),
       st.one_of(st.none(), st.sampled_from([1e-150, 1e103, math.inf]), st.floats(0.01, 1e6)))
def test_rgk_bgl_exits_0_2_3_or_4(triples, a_default):
    with tempfile.TemporaryDirectory() as tmp:
        pred, gt = Path(tmp) / "pred.csv", Path(tmp) / "gt.csv"
        classes = [c for _, _, c in triples]
        write_boxes([p for p, _, _ in triples], pred, classes=classes)
        write_boxes([t for _, t, _ in triples], gt, classes=classes)
        argv = ["bgl", "--pred", str(pred), "--gt", str(gt), "--grad-check"]
        if a_default is not None:
            argv += ["--set", f"a_default={a_default!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")


#: coordinates on the map, off it, at the map edges, tiny and huge
coordinate = st.one_of(
    st.floats(-40.0, 80.0),
    st.sampled_from([0.0, -0.0, 12.8, -12.8, 25.6, 5e-324, 1e-300, 1e150, -1e150, 1e300,
                     -1e300, 1.7976931348623157e308, -1.7976931348623157e308]),
)
points = st.tuples(coordinate, coordinate, coordinate)
clouds = st.one_of(
    st.lists(points, max_size=12),  # includes the empty cloud and one point
    st.tuples(points, st.integers(2, 6)).map(lambda pn: [pn[0]] * pn[1]),  # duplicates
    st.lists(points, min_size=1, max_size=4).map(lambda ps: ps + ps[:1]),
)
_ENCODE_BEV = BevRange(0.0, 25.6, -12.8, 12.8, 24, 20)  # 5 x 6 tiles of 4 px, 0.78/0.94 px/m
_ENCODE_PARAMS = init_weights(3, c_raw=2, c=8)


def _encode_result(pos, feats, **settings_):
    """The map's bytes, checked finite, or the type of the error encode raised."""
    try:
        # a 4-px tile edge, patched per call: hypothesis refuses function-scoped fixtures
        with mock.patch.object(RasterSettings, "tile_size", 4):
            fmap = encode(PointCloud(pos, feats), _ENCODE_PARAMS, _ENCODE_BEV,
                          RasterSettings(**settings_))
    except RgkError as exc:
        return type(exc)
    assert fmap.data.shape == (_ENCODE_PARAMS.feature_dim, 24, 20)
    assert np.all(np.isfinite(fmap.data))
    return fmap.data.tobytes()


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(clouds, st.sampled_from(BLEND_ORDERS), st.sampled_from([1e-4, 0.0, -1.0, -1e300]))
def test_encode_is_a_finite_map_or_a_typed_error(cloud_points, blend_order, t_min):
    pos = np.array(cloud_points, dtype=np.float64).reshape(-1, 3)
    feats = np.linspace(-1.0, 1.0, 2 * len(pos)).reshape(-1, 2)
    got = _encode_result(pos, feats, t_min=t_min, blend_order=blend_order)
    if t_min < 0:  # no early stop, as at t_min = 0: the same bytes or the same error
        assert got == _encode_result(pos, feats, t_min=0.0, blend_order=blend_order)


_SPLAT_BEV = BevRange(0.0, 10.0, 0.0, 9.25, 37, 40)  # 3 x 3 tiles, the last ones partial
_AMIN = RasterSettings().alpha_min


@st.composite
def splat_arrays(draw):
    """Blend-ordered means, inverse covariances as (a, b, c), opacities and
    features of up to 5 hand-made splats; variances of 1e-6 to 1e4 px^2
    make needles and determinants down to about DET_EPS, and one splat in
    half the draws has a negative variance, so is no Gaussian."""
    n = draw(st.integers(1, 5))
    coord = st.one_of(st.floats(0.0, 37.0), st.floats(-10.0, 50.0), st.sampled_from(
        [-1e3, 1e3, -1e308, 1e308, -math.inf, math.inf]))
    opacity = st.one_of(st.floats(0.05, 1.0), st.sampled_from(
        [_AMIN, np.nextafter(_AMIN, 0.0), np.nextafter(_AMIN, 1.0), 0.0, 1.0]))
    variance = st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e)
    rows = []
    for _ in range(n):
        long, short, t = draw(variance), draw(variance), draw(st.floats(0.0, math.pi))
        a = long * math.cos(t) ** 2 + short * math.sin(t) ** 2
        c = long * math.sin(t) ** 2 + short * math.cos(t) ** 2
        b = (long - short) * math.sin(t) * math.cos(t)
        o, f = draw(opacity), draw(st.floats(0.25, 1.0))
        rows.append((draw(coord), draw(coord), a, b, c, o, f))
    if draw(st.booleans()):  # an indefinite covariance: [[a, b], [b, -c]]
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:4] + (-rows[i][4],) + rows[i][5:]
    mx, my, a, b, c, o, f = np.array(rows).T
    det = a * c - b * b
    assume(np.all(det != 0.0))
    return np.stack([mx, my], 1), np.stack([c, -b, a], 1) / det[:, None], o, f[:, None]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(splat_arrays())
def test_splats_are_refused_or_composite_to_the_oracle(splats):
    mean2d, inv, opacity, feats = splats
    settings_ = RasterSettings(t_min=0.0)
    try:
        tiled = _composite(mean2d, inv, opacity, feats, _SPLAT_BEV, settings_)
    except SingularCovariance:
        return
    oracle = rasterize_oracle(mean2d, inv, opacity, feats, _SPLAT_BEV, settings_)
    assert np.max(np.abs(tiled.data.astype(np.float64) - oracle.data)) <= 1e-4


#: the thinnest footprint encode makes: s_min = 1e-3 m at lambda_blur = 0 and
#: the tj4d preset's 5.44 px/m down the map, a variance of 3e-5 px^2
_THINNEST = (1e-3 * 432 / 79.36) ** 2


@st.composite
def gaussian_splats(draw):
    """Means, positive definite inverse covariances as (a, b, c) and
    opacities of up to 5 splats: variances from :data:`_THINNEST` to 1e4
    px^2 along x and y, correlations up to |rho| = 0.999, and means on the
    map, off it and far off it."""
    n = draw(st.integers(1, 5))
    coord = st.one_of(st.floats(0.0, 40.0), st.floats(-60.0, 100.0), st.sampled_from(
        [-1e6, 1e6, -1e300, 1e300]))
    variance = st.floats(math.log10(_THINNEST), 4.0).map(lambda e: 10.0 ** e)
    opacity = st.one_of(st.floats(0.05, 1.0), st.sampled_from(
        [_AMIN, np.nextafter(_AMIN, 1.0), 1.0]))
    rho = st.one_of(st.floats(-0.999, 0.999), st.sampled_from([-0.999, 0.999]))
    rows = []
    for _ in range(n):
        ia, ic = 1.0 / draw(variance), 1.0 / draw(variance)
        rows.append((draw(coord), draw(coord), ia, draw(rho) * math.sqrt(ia * ic), ic,
                     draw(opacity)))
    mx, my, ia, ib, ic, o = np.array(rows).T
    return np.stack([mx, my], 1), np.stack([ia, ib, ic], 1), o


@_SETTINGS
@given(gaussian_splats(), st.sampled_from([1, 4, 16, 32]))
def test_binning_keeps_exactly_the_pairs_the_exact_test_keeps(splats, tile_size):
    with mock.patch.object(RasterSettings, "tile_size", tile_size):
        assert_bins_exact_test_pairs(*splats, _SPLAT_BEV, RasterSettings())


def _saved_weights() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.rgwt"
        save_weights(init_weights(4, c_raw=2, c=4, n_heads=2), path)
        return path.read_bytes()


_RGWT = _saved_weights()
#: byte offset of each 0-d tensor's payload: it follows the name and a rank of 0
_SCALARS = {name: _RGWT.index(name.encode()) + len(name) + 4
            for name in ("gfa.ln1.eps", "gfa.ln2.eps", "meta.n_heads", "meta.r", "meta.s_min")}


def _overwrite(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for offset, data in edits:
        out[offset:offset + len(data)] = data
    return bytes(out[:len(blob)])


scalar_values = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.5, 2.0, 3.0, 2.0 ** 53, 2.0 ** 64, 1e200, 5e-324]),
)
rgwt_files = st.one_of(
    st.integers(0, len(_RGWT)).map(lambda n: _RGWT[:n]),
    st.lists(st.tuples(st.integers(0, len(_RGWT) - 1), st.binary(min_size=1, max_size=8)),
             min_size=1, max_size=6).map(lambda edits: _overwrite(_RGWT, edits)),
    st.dictionaries(st.sampled_from(sorted(_SCALARS)), scalar_values, min_size=1).map(
        lambda values: _overwrite(_RGWT, [(_SCALARS[k], np.float64(v).astype("<f8").tobytes())
                                          for k, v in values.items()])),
)


@_SETTINGS
@given(rgwt_files)
def test_load_weights_returns_params_or_a_typed_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.rgwt"
        path.write_bytes(blob)
        try:
            params = load_weights(path)
        except RgkError:
            return
    assert isinstance(params, PgeParams)


@st.composite
def neighbour_clouds(draw):
    """Up to 30 rows on multiples of r / 2 and of the cell side r (1 + 1e-9)
    over 2, or between them, each maybe one ulp off, at an offset up to
    1e12, with duplicates and rows at +-1e308; returns the positions and r."""
    r = draw(st.sampled_from([0.32, 0.1, 1.0, 1e-3, 7.5]))
    offset = draw(st.sampled_from([0.0, 5e6, -1e9, 1e12, -1e12]))
    step = draw(st.sampled_from([r, r * (1 + 1e-9)]))
    # halves of the step too, and points in between, so that pairs also
    # cross cells diagonally
    multiple = st.one_of(st.integers(-4, 4).map(lambda k: k / 2), st.floats(-2.0, 2.0))

    def place(k, ulp):
        x = offset + k * step
        return np.nextafter(x, ulp * math.inf) if ulp else x

    coordinate = st.builds(place, multiple, st.sampled_from([0, -1, 1]))
    row = st.one_of(st.tuples(coordinate, coordinate, coordinate),
                    st.sampled_from([(1e308, 0.0, 0.0), (-1e308, -1e308, 1e308)]))
    rows = draw(st.lists(row, max_size=24))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
    return np.array(rows, dtype=np.float64).reshape(-1, 3), r


@_SETTINGS
@given(neighbour_clouds())
def test_neighbor_index_is_the_bruteforce_kernel(cloud_r):
    pos, r = cloud_r
    xs, ys, zs = (pos[:, k].tolist() for k in range(3))
    rows, cols = [], []
    for i in range(len(pos)):
        for j in range(len(pos)):
            dx, dy, dz = xs[i] - xs[j], ys[i] - ys[j], zs[i] - zs[j]
            if dx * dx + dy * dy + dz * dz < r * r:
                rows.append(i)
                cols.append(j)
    index = build_neighbor_index(PointCloud(pos, np.zeros((len(pos), 1))), r)
    for got, want in ((index.row_idx, rows), (index.col_idx, cols)):
        assert got.dtype == np.intp
        assert np.array_equal(got, np.array(want, dtype=np.intp))


#: channel counts of a cloud header: small ones, the u32 edge of RGPC,
#: past it, and past the widest row a NumPy array can hold
header_channels = st.one_of(
    st.integers(0, 5),
    st.sampled_from([2 ** 31, 4_000_000_000, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 10 ** 11,
                     2 ** 63 - 4, 2 ** 63 - 3, 10 ** 20]),
)
#: finite values (overwritten RGPC bytes bring NaN and inf)
cloud_values = st.one_of(st.floats(-60.0, 60.0),
                         st.sampled_from([0.0, -0.0, 1e154, 1e300, -1e308, 5e-324]))


def _damage(blob: bytes, draw) -> bytes:
    """The blob cut short, extended, or with a few bytes overwritten."""
    how = draw(st.sampled_from(["cut", "extend", "overwrite"]))
    if how == "cut":
        return blob[:draw(st.integers(0, len(blob)))]
    if how == "extend" or not blob:
        return blob + draw(st.binary(min_size=1, max_size=16))
    edits = draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                    st.binary(min_size=1, max_size=8)), min_size=1, max_size=4))
    return _overwrite(blob, edits)


@st.composite
def cloud_files(draw):
    """``(name, bytes)`` of an RGPC or CSV cloud of up to 4 points whose
    header is right or states another version, point count or channel
    count (up to past 2^63), maybe damaged afterwards."""
    n = draw(st.integers(0, 4))
    c_raw = draw(st.integers(0, 5))
    version, count, channels = 1, n, c_raw
    if draw(st.booleans()):
        version = draw(st.sampled_from([1, 0, 2]))
        count = draw(st.sampled_from([n, 0, n + 1, 2 ** 32 - 1]))
        channels = draw(header_channels)
    values = draw(st.lists(cloud_values, min_size=n * (3 + c_raw), max_size=n * (3 + c_raw)))
    if draw(st.booleans()):
        name = "cloud.rgpc"
        blob = (b"RGPC" + struct.pack("<III", version, count, min(channels, 2 ** 32 - 1))
                + np.array(values, dtype="<f8").tobytes())
    else:
        name = "cloud.csv"
        rows = [",".join(format(v, ".17g") for v in values[i:i + 3 + c_raw])
                for i in range(0, len(values), 3 + c_raw)]
        blob = ("\n".join([f"# c_raw={channels}", *rows]) + "\n").encode()
    return name, _damage(blob, draw) if draw(st.booleans()) else blob


#: the header and payload defects these tests first found
_CLOUD_DEFECTS = [
    ("cloud.csv", b"# c_raw=99999999999999999999\n"),
    ("cloud.csv", b"# c_raw=100000000000\n"),
    ("cloud.rgpc", b"RGPC" + struct.pack("<III", 1, 0, 4_000_000_000)),
    ("cloud.csv", b"# c_raw=1\n0,0,0,1e300\n1,1,0,1\n"),
]


def _with_defects(test):
    for case in _CLOUD_DEFECTS:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cloud_files())
@_with_defects
def test_cloud_files_parse_to_a_valid_cloud_or_a_typed_error(name_blob):
    name, blob = name_blob
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(blob)
        try:
            cloud = read_cloud(path)
        except RgkError:
            return
    n = len(cloud)
    assert cloud.positions.shape == (n, 3) and cloud.features.shape == (n, cloud.c_raw)
    assert np.all(np.isfinite(cloud.positions)) and np.all(np.isfinite(cloud.features))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cloud_files())
@_with_defects
def test_rgk_encode_of_any_cloud_file_exits_0_2_3_or_4(name_blob):
    name, blob = name_blob
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(blob)
        try:
            read_cloud(path)
            parsed = True
        except RgkError:
            parsed = False
        argv = ["encode", "--cloud", str(path), "--out", str(Path(tmp) / "m.rgfm"),
                "--set", "c=8", "--set", "h=16", "--set", "w=16"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")
    assert parsed or code != 0


#: RGFM header sizes: small ones and the u32 edge, whose products reach ~8e28
map_dims = st.one_of(st.integers(0, 4), st.sampled_from([2 ** 16, 2 ** 31, 2 ** 32 - 1]))
#: range extents: NaN, infinite, equal and inverted ones among them
map_extents = st.one_of(st.floats(-100.0, 100.0),
                        st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
                                         math.nan]))


@st.composite
def rgfm_files(draw):
    """An RGFM file whose header states version 1 (or 0 or 2), any C, H and
    W up to 2^32 - 1 and any extents, with the payload the header asks for
    when that is small, else a few bytes; maybe cut, extended or
    overwritten afterwards."""
    version = draw(st.sampled_from([1, 1, 1, 0, 2]))
    c, h, w = draw(map_dims), draw(map_dims), draw(map_dims)
    extents = [draw(map_extents) for _ in range(4)]
    size = 4 * c * h * w
    payload = draw(st.binary(min_size=size, max_size=size) if size <= 256
                   else st.binary(max_size=16))
    blob = b"RGFM" + struct.pack("<IIII4d", version, c, h, w, *extents) + payload
    return _damage(blob, draw) if draw(st.booleans()) else blob


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rgfm_files())
# zero channels of 2^31 x 2^31 values: a raw ValueError from the reshape
@example(b"RGFM" + struct.pack("<IIII4d", 1, 0, 2 ** 31, 2 ** 31, 0.0, 1.0, 0.0, 1.0))
# finite extents whose span is infinite: a map at 0 px per meter
@example(b"RGFM" + struct.pack("<IIII4d", 1, 1, 1, 1, -1e308, 1e308, 0.0, 1.0) + bytes(4))
@example(b"RGFM" + struct.pack("<IIII4d", 1, 1, 1, 1, 0.0, 1.0, -1e308, 1e308) + bytes(4))
def test_feature_map_files_parse_to_a_map_or_a_typed_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.rgfm"
        path.write_bytes(blob)
        try:
            fmap = read_feature_map(path)
        except RgkError:
            return
    c, h, w = struct.unpack_from("<III", blob, 8)
    assert isinstance(fmap, BevFeatureMap) and fmap.data.dtype == np.float32
    assert fmap.data.shape == (c, h, w) == (c, fmap.bev.h, fmap.bev.w)
    assert math.isfinite(fmap.bev.x_max - fmap.bev.x_min)
    assert math.isfinite(fmap.bev.y_max - fmap.bev.y_min)
    assert len(blob) == 4 + struct.calcsize("<IIII4d") + 4 * c * h * w


def _exit_code(argv) -> int:
    """``rgk`` exit code of ``argv``; a failure prints one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")
    return code


def _sizes(small, huge):
    """A size that runs in milliseconds, or one past 2^40 (and past 2^64)
    that a cap refuses before anything is allocated."""
    return st.one_of(st.integers(*small), st.integers(*huge),
                     st.sampled_from([2 ** 63 - 8, 2 ** 64 + 1]))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["generate", "generate --binary", "bench-lfa"]),
       _sizes((-1, 6), (2 ** 37, 2 ** 42)), _sizes((-1, 6), (2 ** 37, 2 ** 42)),
       _sizes((0, 6), (2 ** 37, 2 ** 42)))
@example("generate", 10, 10 ** 11, 8)
@example("generate", 10, 4, 10 ** 11)
@example("generate", 3_000_000_000, 4, 8)
@example("bench-lfa", 3_000_000_000, 4, 8)
@example("generate --binary", 0, 2 ** 63 - 8, 8)
def test_rgk_generate_and_bench_exit_0_2_3_or_4_at_any_size(command, n, c_raw, clusters):
    name, *flags = command.split()
    with tempfile.TemporaryDirectory() as tmp:
        if name == "generate":
            argv = ["generate", "--out", str(Path(tmp) / "scene"), "--n", str(n),
                    "--c-raw", str(c_raw), "--clusters", str(clusters), *flags]
        else:
            argv = ["bench-lfa", "--n", str(n), "--c-raw", str(c_raw), "--reps", "1",
                    "--set", "c=4"]
        code = _exit_code(argv)
    huge = max(n, c_raw, clusters) > 2 ** 36
    assert not huge or code in (2, 3)


_CLOUD_ROWS = ["# c_raw=2", "1,0,0,0.5,-1", "2,1,0.5,1,0", "1.1,0.2,0,0,0.3", "20,-5,1,1,1"]


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sizes((1, 40), (2 ** 29, 2 ** 66)), _sizes((1, 40), (2 ** 29, 2 ** 66)),
       _sizes((1, 8), (2 ** 20, 2 ** 66)))
@example(100_000, 100_000, 64)
def test_rgk_encode_exits_0_2_3_or_4_at_any_map_size(h, w, c):
    with tempfile.TemporaryDirectory() as tmp:
        cloud = Path(tmp) / "cloud.csv"
        cloud.write_text("\n".join(_CLOUD_ROWS) + "\n")
        code = _exit_code(["encode", "--cloud", str(cloud), "--out", str(Path(tmp) / "m.rgfm"),
                           "--set", f"h={h}", "--set", f"w={w}", "--set", f"c={c}"])
    assert code == (3 if max(h, w, c) > 2 ** 19 or 4 * c * h * w > MAX_MAP_BYTES else 0)


#: scalar keys (with their canonical dump order), per-class keys, unknown
#: ones and any text, line breaks, "=" and lone surrogates included
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
config_keys = st.one_of(
    st.sampled_from([*(line.split(" = ")[0] for line in dump_config(RunConfig()).splitlines()),
                     "a_bus", "a_", "lambda", "R", "#r", "", "a_x\ny", "a_x\x85y", "a_x ",
                     "a_\udcff"]),
    _ANY_TEXT.map(lambda text: "a_" + text),
    _ANY_TEXT,
)
#: numbers of every kind, non-numeric text, NaN, +-inf, past 2^64
config_values = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "1e-3", "nan", "-NaN", "inf", "-inf", "Infinity",
                     "1e999", "-1e999", str(2 ** 64), str(2 ** 64 + 1), str(-2 ** 70), "1_000",
                     "0x10", "1" * 5000, "", "abc", "z-asc", "index", "8.0"]),
    st.integers().map(str),
    st.floats().map(repr),
    _ANY_TEXT,
)
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map(" = ".join),
    st.sampled_from(["", "  ", "# comment", "no equals sign", "=", "r = 0.5 = 1"]),
    _ANY_TEXT,
)


def _assert_dump_round_trips(cfg: RunConfig) -> str:
    """``cfg`` validates, and its dump is UTF-8 text that parses back to it."""
    text = dump_config(cfg.validate())
    text.encode("utf-8")
    back = apply_updates(RunConfig(), parse_config_text(text))
    assert back == cfg and dump_config(back) == text
    return text


@_SETTINGS
@given(st.lists(config_lines, max_size=8), st.dictionaries(config_keys, config_values, max_size=6))
# class names that --dump-config wrote as lines that parse back to another
# config, or not at all, or that a UTF-8 stream cannot encode
@example(["a_x = 1"], {"a_x\ny": "2"})
@example([], {"a_x ": "1", "a_x=y": "1"})
@example([], {"a_\udcff": "1"})
def test_config_text_and_updates_give_a_config_or_a_typed_error(lines, updates):
    try:
        parse_config_text("\n".join(lines))
    except RgkError:
        pass
    # one line or update at a time, so the accepted ones build up a config
    cfg = RunConfig()
    for step in [*lines, *updates.items()]:
        try:
            raw = parse_config_text(step) if isinstance(step, str) else dict([step])
            cfg = apply_updates(cfg, raw).validate()
        except RgkError:
            pass
    _assert_dump_round_trips(cfg)


#: UTF-8 config files, raw bytes and files that are UTF-8 but for one byte
config_files = st.one_of(
    st.lists(config_lines.filter(lambda line: not any("\ud800" <= ch <= "\udfff" for ch in line)),
             max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=48),
    st.tuples(st.lists(config_lines, max_size=4),
              st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    .map(lambda t: "\n".join(t[0]).encode("utf-8", "surrogatepass") + t[1]),
    st.just("\ufeffr = 0.5\n".encode("utf-8")),
)


@_SETTINGS
@given(config_files)
def test_config_files_load_to_a_config_or_a_typed_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(blob)
        try:
            cfg = load_config(path).validate()
        except RgkError:
            return
    _assert_dump_round_trips(cfg)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_files, st.lists(st.one_of(st.tuples(config_keys, config_values).map("=".join),
                                        _ANY_TEXT), max_size=4),
       st.sampled_from(["encode", "bgl", "generate"]))
@example(b"", ["a_x\x85y=1"], "bgl")
@example(b"a_car = 2\n", ["a_\udcff=1"], "encode")
def test_rgk_dump_config_exits_0_2_or_3_and_prints_a_config_that_parses_back(blob, sets, command):
    # stdout is strict UTF-8, as on a UTF-8 terminal or pipe
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(blob)
        args = {"encode": ["--cloud", "c", "--out", "m"], "bgl": ["--pred", "p", "--gt", "g"],
                "generate": ["--out", "s", "--n", "1"]}[command]
        argv = [command, *args, "--config", str(path), *(f"--set={item}" for item in sets),
                "--dump-config"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")
        return
    out.seek(0)
    text = out.read()
    assert _assert_dump_round_trips(apply_updates(RunConfig(), parse_config_text(text))) == text
