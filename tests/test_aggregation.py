"""Local/global aggregation: hand examples, brute-force neighbor oracle,
cross-implementation equivalence, attribute head, weight I/O; what a
fresh process loads through the package namespace."""

import dataclasses
import hashlib
import importlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import rgkit
from rgkit.aggregation import (
    DEFAULT_MEM_CAP,
    MAX_WEIGHT_BYTES,
    AttentionBlock,
    LayerNormParams,
    LinearLayer,
    PgeParams,
    broadcast_mem_bytes,
    build_neighbor_index,
    gfa,
    index_scatter_mem_bytes,
    init_weights,
    lfa_broadcast_mask,
    lfa_index_scatter,
    lfa_traversal,
    load_weights,
    predict_attributes,
    save_weights,
    softplus,
    traversal_mem_bytes,
    weights_mem_bytes,
)
from rgkit.aggregation import _named_tensors
from rgkit.errors import AllocationLimit, FormatError, InvalidSpec, ShapeMismatch
from rgkit.pointcloud import PointCloud, SceneSpec, generate_scene
from rgkit.rng import SplitMix64, stream_seed

ALL_LFA = (lfa_traversal, lfa_broadcast_mask, lfa_index_scatter)


# ---------------------------------------------------------------------------
# Layers


def test_linear_layer_apply_and_validation():
    layer = LinearLayer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([10.0, 20.0]))
    out = layer.apply(np.array([[3.0, 4.0]]))
    assert np.array_equal(out, [[3.0 + 8.0 + 10.0, -4.0 + 20.0]])
    no_bias = LinearLayer(np.eye(2))
    assert np.array_equal(no_bias.apply(np.array([[5.0, 6.0]])), [[5.0, 6.0]])
    with pytest.raises(ShapeMismatch):
        LinearLayer(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        LinearLayer(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        layer.apply(np.zeros((1, 3)))


def test_layernorm_formula():
    ln = LayerNormParams(np.array([2.0, 2.0]), np.array([1.0, -1.0]))
    x = np.array([[3.0, 5.0]])
    mu, var = 4.0, 1.0
    want = 2.0 * (x - mu) / math.sqrt(var + 1e-5) + np.array([1.0, -1.0])
    assert np.allclose(ln.apply(x), want, rtol=0, atol=1e-15)
    with pytest.raises(ShapeMismatch):
        LayerNormParams(np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_layers_reject_non_finite_parameters(bad):
    w, v = np.eye(2), np.zeros(2)
    w[1, 0] = bad
    with pytest.raises(InvalidSpec, match="weight"):
        LinearLayer(w)
    with pytest.raises(InvalidSpec, match="bias"):
        LinearLayer(np.eye(2), np.array([0.0, bad]))
    with pytest.raises(InvalidSpec, match="gamma"):
        LayerNormParams(np.array([1.0, bad]), v)
    with pytest.raises(InvalidSpec, match="beta"):
        LayerNormParams(np.ones(2), np.array([bad, 0.0]))


def test_softplus_safe_and_correct():
    x = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
    out = softplus(x)
    assert out[2] == math.log(2.0)
    assert abs(out[1] - math.log(1 + math.exp(-1))) < 1e-15
    assert out[0] == 0.0 and out[4] == 800.0  # no overflow at the extremes
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# Local aggregation


def _identity_layer(c_raw: int) -> LinearLayer:
    return LinearLayer(np.eye(c_raw + 3))


@pytest.mark.parametrize("fn", ALL_LFA)
def test_lfa_two_point_hand_example(fn):
    cloud = PointCloud([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]], [[2.0], [-4.0]])
    out = fn(cloud, _identity_layer(1), 0.5)
    # row i averages [f_j, p_i - p_j] over both points
    want = np.array([
        [(2.0 - 4.0) / 2.0, (0.0 - 0.2) / 2.0, 0.0, 0.0],
        [(-4.0 + 2.0) / 2.0, (0.0 + 0.2) / 2.0, 0.0, 0.0],
    ])
    assert np.array_equal(out, want)


@pytest.mark.parametrize("fn", ALL_LFA)
def test_lfa_boundary_is_excluded(fn):
    # distance exactly r: 0.25 and 0.0625 are exact binary, so d^2 == r^2
    cloud = PointCloud([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]], [[1.0], [5.0]])
    out = fn(cloud, _identity_layer(1), 0.25)
    want = np.array([[1.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(out, want)  # each point only sees itself


@pytest.mark.parametrize("fn", ALL_LFA)
def test_lfa_isolated_point_sees_itself(fn):
    cloud = PointCloud([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]], [[3.5], [-1.0]])
    layer = LinearLayer(np.eye(4), np.full(4, 0.25))
    out = fn(cloud, layer, 1.0)
    assert np.array_equal(out[0], [3.75, 0.25, 0.25, 0.25])
    assert np.array_equal(out[1], [-0.75, 0.25, 0.25, 0.25])


@pytest.mark.parametrize("fn", ALL_LFA)
def test_lfa_empty_cloud(fn):
    cloud = PointCloud(np.zeros((0, 3)), np.zeros((0, 4)))
    layer = init_weights(0, c_raw=4, c=16).lfa
    out = fn(cloud, layer, 0.32)
    assert out.shape == (0, 16)


@pytest.mark.parametrize("fn", ALL_LFA)
def test_lfa_rejects_bad_args(fn):
    cloud = generate_scene(SceneSpec(seed=0, n_points=4))
    layer = init_weights(0, c_raw=4, c=8).lfa
    # 1e-200 and 1e200 square to 0 and inf, which the distance kernel cannot use
    for r in (0.0, -1.0, 1e-200, 1e200, math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            fn(cloud, layer, r)
    with pytest.raises(ShapeMismatch):
        fn(cloud, init_weights(0, c_raw=5, c=8).lfa, 0.32)


def test_neighbor_index_and_config_reject_a_radius_whose_square_leaves_float64():
    cloud = generate_scene(SceneSpec(seed=0, n_points=4))
    for r in (1e-200, 1e200, math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            build_neighbor_index(cloud, r)
        with pytest.raises(InvalidSpec):
            rgkit.RunConfig(r=r).validate()
    assert len(build_neighbor_index(cloud, 1e-150).row_idx) == 4  # only the self-pairs


@pytest.mark.parametrize("fn", ALL_LFA)
def test_lfa_huge_coordinates_stay_finite(fn):
    # offsets between the far rows overflow to inf; they are no neighbours
    cloud = PointCloud(
        [[1e308, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [-1e308, 0.0, 0.0]],
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]],
    )
    layer = init_weights(4, c_raw=2, c=8).lfa
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reference = lfa_traversal(cloud, layer, 0.32)
        out = fn(cloud, layer, 0.32)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - reference)) <= 1e-9


@pytest.mark.parametrize("r", [0.1, 0.32, 1.0, 5.0])
def test_lfa_implementations_agree(r):
    cloud = generate_scene(SceneSpec(seed=21, n_points=137))
    layer = init_weights(21, c_raw=4, c=24).lfa
    reference = lfa_traversal(cloud, layer, r)
    for fn in (lfa_broadcast_mask, lfa_index_scatter):
        assert np.max(np.abs(fn(cloud, layer, r) - reference)) <= 1e-9


def _shells(r):
    """A centre with points at distance r(1 + k 1e-16), k = -3..3, along
    the axes and one diagonal: the kernel's rounding decides each one."""
    centre = np.array([1.5, -2.25, 0.75])
    dirs = np.vstack([np.eye(3), -np.eye(3), np.full((1, 3), 1.0 / math.sqrt(3.0))])
    rings = [centre + dirs * (r * (1.0 + k * 1e-16)) for k in range(-3, 4)]
    return np.vstack([centre[None, :], *rings])


_SCENE = generate_scene(SceneSpec(seed=8, n_points=150)).positions
NEIGHBOR_CASES = {
    "scene": (_SCENE, 0.6),
    "shells": (_shells(0.32), 0.32),
    "shift_1e6": (_SCENE + 1e6, 0.6),
    "shift_1e8": (_SCENE + 1e8, 0.6),
    "shift_-1e8": (_SCENE - 1e8, 0.6),
    "shift_3e15": (_SCENE + 3e15, 0.6),
    "huge": (
        np.array([[1e308, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                  [-1e308, 0.0, 0.0], [-1.7e308, 0.0, 0.0], [1e308, 0.0, 0.2]]),
        0.32,
    ),
    "dup_1e200": (np.vstack([np.full((4, 3), 1e200), [[0.0, 0.0, 0.0]], np.full((3, 3), -1e200)]), 0.32),
    # a median at -1.36e12 rounds the offsets of this pair, 0.32 (1 - 1e-6)
    # apart at 1.01e12, into cells 2 r apart: cells as wide as r there
    # would not propose it
    "split_by_rounding": (np.array([[-1357103835085.4568, 0.0, 0.0]] * 3
                                   + [[1014188606435.2759, 0.0, 0.0],
                                      [1014188606435.5958, 0.0, 0.0]]), 0.32),
    "outliers": (np.vstack([_SCENE[:60], _SCENE[60:90] * 1e5, _SCENE[90:110] * 1e12,
                            _SCENE[90:110] * 1e12 + 0.3, _SCENE[110:130] * 1e298,
                            _SCENE[110:130] * 1e298 * (1 + 2e-16)]), 0.6),
    "empty": (np.zeros((0, 3)), 0.32),
    "single": (np.array([[3.0, -4.0, 5.0]]), 0.32),
    "all_duplicate": (np.tile([[0.5, -0.25, 1.0]], (40, 1)), 0.32),
}


@pytest.mark.parametrize("case", list(NEIGHBOR_CASES))
def test_neighbor_index_matches_bruteforce(case):
    pos, r = NEIGHBOR_CASES[case]
    cloud = PointCloud(pos, np.zeros((len(pos), 1)))
    index = build_neighbor_index(cloud, r)
    xs, ys, zs = (pos[:, k].tolist() for k in range(3))
    rows, cols = [], []
    for i in range(len(pos)):
        for j in range(len(pos)):
            dx, dy, dz = xs[i] - xs[j], ys[i] - ys[j], zs[i] - zs[j]
            if dx * dx + dy * dy + dz * dz < r * r:
                rows.append(i)
                cols.append(j)
    # same pairs, same (row-major) order, same dtype
    for got, want in ((index.row_idx, rows), (index.col_idx, cols)):
        assert got.dtype == np.intp
        assert np.array_equal(got, np.array(want, dtype=np.intp))
    assert index.counts().sum() == len(rows)
    assert np.all(index.counts() >= 1)  # self pair guarantees nonzero rows


def _modules_after(code: str) -> list:
    """The scipy and rgkit modules loaded in a fresh interpreter that runs ``code``."""
    code += "; print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'rgkit')))"
    src = str(Path(rgkit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", "import sys; " + code],
                         env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True)
    return out.stdout.split()


def _scipy(modules: list) -> list:
    return [m for m in modules if m.split(".")[0] == "scipy"]


#: modules of the encoder side, which the loss never needs
ENCODER_MODULES = {f"rgkit.{name}" for name in
                   ("aggregation", "splat", "pointcloud", "special", "rng", "bench", "selftest")}


def test_importing_rgkit_loads_no_scipy_module():
    # nor any rgkit module: each loads on first use of a name it defines
    assert _modules_after("import rgkit") == ["rgkit"]


def test_encode_loads_no_scipy_module():
    # the neighbour search is a NumPy cell list and gelu a NumPy erf
    assert _scipy(_modules_after(
        "import rgkit; from rgkit.pointcloud import SceneSpec, generate_scene; "
        "rgkit.encode(generate_scene(SceneSpec(seed=0, n_points=60)), rgkit.init_weights(0, c=8), "
        "rgkit.BevRange(0.0, 51.2, -25.6, 25.6, 64, 64))")) == []


def test_box_loss_through_the_namespace_loads_no_encoder_module():
    loaded = _modules_after(
        "import rgkit; cfg = rgkit.RunConfig().validate().bgl_config(); "
        "box = rgkit.Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.1); "
        "rgkit.bgl([box], [box], ['car'], cfg)")
    assert _scipy(loaded) == [] and "rgkit.boxloss" in loaded
    assert ENCODER_MODULES.isdisjoint(loaded), loaded


PUBLIC_NAMES = [
    "AllocationLimit", "AttentionBlock", "BenchReport", "BenchRow", "BevFeatureMap", "BevRange",
    "BglConfig", "Box3D", "DegenerateQuaternion", "EmptyBatch", "FormatError",
    "GaussianDistribution3D", "GaussianPrimitive3D", "InvalidSpec", "KlComponents",
    "LayerNormParams", "LengthMismatch", "LinearLayer", "NeighborIndex", "NonPositiveScale",
    "PRESETS", "PgeParams", "PointCloud", "RasterSettings", "RgkError", "RunConfig", "SceneSpec",
    "ShapeMismatch", "SingularCovariance", "SingularMatrix", "Splat2D", "SplitMix64",
    "__version__", "apply_preset", "apply_updates", "bgl", "bgl_gradient", "box_to_gaussian",
    "build_neighbor_index", "dump_config", "encode", "fd_gradient", "fnv1a64", "generate_scene",
    "gfa", "init_weights", "kl_divergence", "lfa_broadcast_mask", "lfa_index_scatter",
    "lfa_traversal", "load_config", "load_weights", "mix64", "nonzero_pixels",
    "parse_config_text", "pillar_scatter", "predict_attributes", "project_to_bev", "rasterize",
    "rasterize_oracle", "read_boxes", "read_cloud", "read_feature_map", "run_bench",
    "run_selftest", "save_weights", "stream_seed", "write_boxes", "write_cloud",
    "write_feature_map", "write_pgm",
]


def test_namespace_exports_each_name_from_its_defining_module():
    assert sorted(rgkit.__all__) == PUBLIC_NAMES
    assert dir(rgkit) == PUBLIC_NAMES
    for name in rgkit.__all__:
        if name == "__version__":
            continue
        value = getattr(rgkit, name)
        home = "rgkit.config" if name == "PRESETS" else value.__module__
        assert home.startswith("rgkit.")
        assert getattr(importlib.import_module(home), name) is value, name
        assert vars(rgkit)[name] is value  # cached: the next lookup is a plain read
    # the settings types moved to config keep their old import paths
    from rgkit import boxloss, config, pointcloud, splat
    assert pointcloud.BevRange is splat.BevRange is config.BevRange is rgkit.BevRange
    assert splat.RasterSettings is config.RasterSettings
    assert boxloss.BglConfig is config.BglConfig
    assert pointcloud.DEFAULT_RANGE is config.DEFAULT_RANGE
    assert boxloss.DEFAULT_A_PER_CLASS is config.DEFAULT_A_PER_CLASS


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from rgkit import *", namespace)
    assert set(rgkit.__all__) <= set(namespace)
    assert namespace["encode"] is rgkit.encode
    with pytest.raises(AttributeError, match="no_such_name"):
        rgkit.no_such_name
    assert not hasattr(rgkit, "Array")  # a module global, not a public name


def test_broadcast_respects_memory_cap():
    cloud = generate_scene(SceneSpec(seed=2, n_points=300))
    layer = init_weights(2, c_raw=4, c=8).lfa
    with pytest.raises(AllocationLimit):
        lfa_broadcast_mask(cloud, layer, 0.32, mem_cap=10_000)
    # the lean implementations have no dense N x N buffer to cap
    lfa_index_scatter(cloud, layer, 0.32)


def test_index_scatter_counts_pairs_before_building_them():
    # N coincident points are N^2 neighbour pairs: 216 MB of LFA buffers at
    # N = 1500, which used to be built whatever mem_cap said
    layer = init_weights(0, c_raw=1, c=8).lfa
    cloud = PointCloud(np.zeros((1500, 3)), np.ones((1500, 1)))
    cap = 1 << 21
    tracemalloc.start()
    try:
        with pytest.raises(AllocationLimit, match="2250000 neighbour candidates of N=1500"):
            lfa_index_scatter(cloud, layer, 0.32, mem_cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap


def test_index_scatter_under_a_cap_that_takes_the_count_gives_the_same_bytes():
    cloud = generate_scene(SceneSpec(seed=0, n_points=2000, n_clusters=4, cluster_sigma=0.5))
    layer = init_weights(0, c_raw=4, c=64).lfa
    index = build_neighbor_index(cloud, 0.32)
    # what the cap bounds: the estimate at the counted candidates and pairs
    # minus that at N self-pairs and no candidates
    fit = (index_scatter_mem_bytes(2000, 4, 64, len(index), index.n_candidates)
           - index_scatter_mem_bytes(2000, 4, 64, 2000, 0))
    want = lfa_index_scatter(cloud, layer, 0.32)
    assert lfa_index_scatter(cloud, layer, 0.32, mem_cap=fit).tobytes() == want.tobytes()
    with pytest.raises(AllocationLimit):
        lfa_index_scatter(cloud, layer, 0.32, mem_cap=fit - 1)


def _smallest_passing_cap(cloud, layer) -> int:
    lo, hi = 0, DEFAULT_MEM_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            lfa_index_scatter(cloud, layer, 0.32, mem_cap=mid)
            hi = mid
        except AllocationLimit:
            lo = mid + 1
    return lo


def test_index_scatter_needs_no_larger_cap_5000_km_away():
    # cells counted from absolute coordinates and clipped would put the
    # whole cloud into one cell at a UTM-scale offset: N^2 / 2 candidates
    cloud = generate_scene(SceneSpec(seed=3, n_points=400, n_clusters=4, cluster_sigma=0.5))
    layer = init_weights(3, c_raw=4, c=16).lfa
    cap = _smallest_passing_cap(cloud, layer)
    shifted = PointCloud(cloud.positions + 5e6, cloud.features)
    assert lfa_index_scatter(shifted, layer, 0.32, mem_cap=cap).shape == (400, 16)


def test_one_far_outlier_does_not_put_the_cloud_into_one_cell():
    # cells counted from the minimum corner would put every other point
    # past the clip, into one cell, when the outlier lies below the cloud
    cloud = generate_scene(SceneSpec(seed=3, n_points=400, n_clusters=4, cluster_sigma=0.5))
    alone = build_neighbor_index(cloud, 0.32).n_candidates
    for far in (-1e7, 1e7):
        pos = np.vstack([cloud.positions, np.full((1, 3), far)])
        with_outlier = build_neighbor_index(PointCloud(pos, np.zeros((401, 1))), 0.32)
        assert with_outlier.n_candidates < 2 * alone


def test_far_flung_points_propose_candidates_linear_in_n():
    # cells clipped at 2^19 r from the median shared the border cells:
    # 62 k, 250 k and 999 k candidates at these sizes, for no neighbour pair
    gen = SplitMix64(stream_seed(30, "far"))
    for n in (1000, 2000, 4000):
        pos = ((gen.uniforms(3 * n) * 2.0 - 1.0) * 1e300).reshape(n, 3)
        index = build_neighbor_index(PointCloud(pos, np.zeros((n, 1))), 0.32)
        assert len(index) == n
        assert index.n_candidates <= n


def test_cell_numbers_past_2_20_merge_and_keep_neighbours():
    # 600 k points at magnitudes from 1 to 1e300 number over 2^20 cells an
    # axis, so the numbers are halved to leave the 21-bit key fields room;
    # three points near the median are still found
    n = 600_000
    gen = SplitMix64(stream_seed(31, "far"))
    sign = np.where(gen.uniforms(3 * n) < 0.5, -1.0, 1.0)
    pos = (sign * 10.0 ** (gen.uniforms(3 * n) * 300.0)).reshape(n, 3)
    pos[:3] = [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.3, 0.2, 0.1]]
    index = build_neighbor_index(PointCloud(pos, np.zeros((n, 1))), 0.32)
    pairs = set(zip(index.row_idx[:7].tolist(), index.col_idx[:7].tolist()))
    assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
    assert len(index) == n + 4
    assert index.n_candidates < 100


def test_memory_estimates():
    assert broadcast_mem_bytes(1000, 4) == 1000 * 1000 * (8 * 7 + 9)
    assert traversal_mem_bytes(1000, 4, 64) == 8 * 1000 * (4 + 3 + 64)
    cloud = generate_scene(SceneSpec(seed=2, n_points=400))
    pairs = len(build_neighbor_index(cloud, 0.32).row_idx)
    est = index_scatter_mem_bytes(400, 4, 64, pairs)
    assert est > 0
    # the sparse estimate must undercut the dense one at this scale
    assert est < broadcast_mem_bytes(400, 4)



@pytest.mark.parametrize("n", [2000, 10_000])
def test_index_scatter_estimate_bounds_traced_peak(n):
    cloud = generate_scene(SceneSpec(seed=0, n_points=n, n_clusters=4, cluster_sigma=0.5))
    layer = init_weights(0, c_raw=4, c=64).lfa
    pairs = len(build_neighbor_index(cloud, 0.32))
    tracemalloc.start()
    try:
        lfa_index_scatter(cloud, layer, 0.32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= index_scatter_mem_bytes(n, 4, 64, pairs)


# ---------------------------------------------------------------------------
# Global aggregation


def _reference_gfa(feats: np.ndarray, block: AttentionBlock) -> np.ndarray:
    """Independent re-implementation of the attention block dataflow."""

    def lin(layer, x):
        out = x @ layer.weight.T
        return out if layer.bias is None else out + layer.bias

    def ln(params, x):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return params.gamma * (x - mu) / np.sqrt(var + params.eps) + params.beta

    c = block.dim
    f1 = lin(block.input_proj, feats)
    qkv = lin(block.qkv, ln(block.ln1, f1))
    q, k, v = qkv[:, :c], qkv[:, c : 2 * c], qkv[:, 2 * c :]
    d_head = c // block.n_heads
    heads = []
    for h in range(block.n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(d_head)
        scores = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        heads.append((e / e.sum(axis=-1, keepdims=True)) @ v[:, sl])
    f2 = lin(block.out_proj, np.concatenate(heads, axis=1)) + f1
    y = ln(block.ln2, f2)
    hidden = 0.5 * lin(block.ffn1, y) * (1.0 + erf(lin(block.ffn1, y) / math.sqrt(2.0)))
    return lin(block.ffn2, hidden) + f2


@pytest.mark.parametrize("n_heads", [1, 4])
def test_gfa_matches_reference(n_heads):
    cloud = generate_scene(SceneSpec(seed=31, n_points=40))
    params = init_weights(31, c_raw=4, c=16, n_heads=n_heads)
    got = gfa(cloud, params.attn)
    want = _reference_gfa(cloud.features, params.attn)
    assert got.shape == (40, 16)
    assert np.max(np.abs(got - want)) < 1e-12


def _random_block(seed, c_raw, c, n_heads, input_bias=True):
    """An attention block with every gamma, beta and bias drawn at random
    (``init_weights`` sets gamma = 1 and beta = 0, which hides a wrong fold)."""
    rng = np.random.default_rng(seed)

    def lin(out_dim, in_dim, bias=True):
        w = rng.uniform(-1, 1, (out_dim, in_dim)) / math.sqrt(max(in_dim, 1))
        return LinearLayer(w, rng.uniform(-1, 1, out_dim) if bias else None)

    def ln():
        return LayerNormParams(rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c),
                               rng.uniform(1e-6, 1e-4))

    return AttentionBlock(lin(c, c_raw, input_bias), ln(), lin(3 * c, c), lin(c, c), ln(),
                          lin(2 * c, c), lin(c, 2 * c), n_heads=n_heads)


@pytest.mark.parametrize("n_heads", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 150])
def test_gfa_factorization_matches_reference_with_random_affine_params(n_heads, n):
    # c = 16 with 8 heads gives d_head = 2, fewer than the c_raw + 2 = 6 factor columns
    cloud = generate_scene(SceneSpec(seed=34, n_points=n))
    for input_bias in (True, False):
        block = _random_block(n_heads * 100 + n, 4, 16, n_heads, input_bias)
        got = gfa(cloud, block)
        assert got.shape == (n, 16)
        assert np.max(np.abs(got - _reference_gfa(cloud.features, block))) < 1e-12


def test_gfa_scores_beyond_exp_range_match_reference():
    # gamma = 40 puts scores in the thousands, where exp overflows unless
    # each row's max is subtracted first
    cloud = generate_scene(SceneSpec(seed=38, n_points=90))
    block = _random_block(38, 4, 16, 2)
    block = dataclasses.replace(block, ln1=dataclasses.replace(block.ln1, gamma=40 * block.ln1.gamma))
    want = _reference_gfa(cloud.features, block)
    assert np.max(np.abs(gfa(cloud, block) - want) / np.maximum(1.0, np.abs(want))) < 1e-12


def test_gfa_without_raw_channels_matches_reference():
    # every row of f1 is the input bias; the factor Z is [1/sigma, 1]
    rng = np.random.default_rng(35)
    cloud = PointCloud(rng.uniform(-5, 5, (70, 3)), np.zeros((70, 0)))
    block = _random_block(35, 0, 8, 2)
    got = gfa(cloud, block)
    assert np.max(np.abs(got - _reference_gfa(cloud.features, block))) < 1e-12


def test_gfa_mem_cap_sets_the_score_block_and_rejects_less_than_a_row():
    cloud = generate_scene(SceneSpec(seed=36, n_points=100))
    block = _random_block(36, 4, 16, 4)
    want = _reference_gfa(cloud.features, block)
    for cap in (800, 8 * 100 * 7, 1 << 30):  # 1, 7 and 64 query rows per block
        assert np.max(np.abs(gfa(cloud, block, mem_cap=cap) - want)) < 1e-12
    for cap in (799, 0):
        with pytest.raises(AllocationLimit):
            gfa(cloud, block, mem_cap=cap)
    assert gfa(PointCloud(np.zeros((0, 3)), np.zeros((0, 4))), block, mem_cap=0).shape == (0, 16)


def test_gfa_at_ten_thousand_points_stays_under_a_64_mb_cap():
    # the dense form held one 10 000 x 10 000 float64 score block: 800 MB
    cap = 64 << 20
    cloud = generate_scene(SceneSpec(seed=37, n_points=10_000))
    block = init_weights(37, c_raw=4, c=64).attn
    tracemalloc.start()
    try:
        out = gfa(cloud, block, mem_cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (10_000, 64) and np.all(np.isfinite(out))
    assert peak < cap


def test_gfa_single_point_attention_is_identity_over_v():
    """With one point the softmax is 1, so attention returns V exactly."""
    cloud = generate_scene(SceneSpec(seed=32, n_points=1))
    block = init_weights(32, c_raw=4, c=8).attn
    got = gfa(cloud, block)
    f1 = block.input_proj.apply(cloud.features)
    qkv = block.qkv.apply(block.ln1.apply(f1))
    v = qkv[:, 16:]
    f2 = block.out_proj.apply(v) + f1
    want = block.ffn2.apply(
        0.5 * block.ffn1.apply(block.ln2.apply(f2))
        * (1.0 + erf(block.ffn1.apply(block.ln2.apply(f2)) / math.sqrt(2.0)))
    ) + f2
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_gfa_permutation_equivariance():
    cloud = generate_scene(SceneSpec(seed=33, n_points=64))
    block = init_weights(33, c_raw=4, c=16, n_heads=2).attn
    out = gfa(cloud, block)
    perm = np.argsort(SplitMix64(stream_seed(33, "perm")).uniforms(64))
    shuffled = PointCloud(cloud.positions[perm], cloud.features[perm])
    assert np.max(np.abs(gfa(shuffled, block) - out[perm])) < 1e-12


def test_gfa_on_huge_finite_features_raises_invalid_spec():
    # 1e200 squares to inf in the layer norm: called outside encode, gfa
    # leaked "overflow encountered in square" and returned a NaN output
    cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]], [[1e200, 0.0], [1.0, 2.0]])
    with pytest.raises(InvalidSpec, match="overflows float64 in the attention .overflow"):
        gfa(cloud, init_weights(0, c_raw=2, c=8).attn)


def test_gfa_channel_mismatch():
    cloud = generate_scene(SceneSpec(seed=0, n_points=4, c_raw=5))
    with pytest.raises(ShapeMismatch):
        gfa(cloud, init_weights(0, c_raw=4, c=8).attn)


def test_attention_block_shape_validation():
    good = init_weights(0, c_raw=4, c=8).attn
    with pytest.raises(ShapeMismatch):
        AttentionBlock(
            input_proj=good.input_proj,
            ln1=good.ln1,
            qkv=LinearLayer(np.zeros((8, 8))),  # must be (3c, c)
            out_proj=good.out_proj,
            ln2=good.ln2,
            ffn1=good.ffn1,
            ffn2=good.ffn2,
        )
    with pytest.raises(ShapeMismatch):
        AttentionBlock(
            input_proj=good.input_proj,
            ln1=good.ln1,
            qkv=good.qkv,
            out_proj=good.out_proj,
            ln2=good.ln2,
            ffn1=good.ffn1,
            ffn2=good.ffn2,
            n_heads=3,  # does not divide 8
        )


# ---------------------------------------------------------------------------
# Attribute head


def test_predict_attributes_contract():
    cloud = generate_scene(SceneSpec(seed=41, n_points=30))
    params = init_weights(41, c_raw=4, c=16)
    f_lfa = lfa_index_scatter(cloud, params.lfa, params.r)
    f_gfa = gfa(cloud, params.attn)
    prims = predict_attributes(cloud, f_lfa, f_gfa, params.head, params.s_min)
    assert len(prims) == 30
    raw = params.head.apply(np.concatenate([cloud.features, f_lfa, f_gfa], axis=1))
    for i, p in enumerate(prims):
        assert np.array_equal(p.mean, cloud.positions[i])
        assert np.array_equal(p.scales, softplus(raw[i, :3]) + params.s_min)
        assert np.all(p.scales >= params.s_min)
        assert abs(np.linalg.norm(p.quat) - 1.0) < 1e-12
        assert p.opacity == 1.0
        assert np.array_equal(p.features, raw[i, 7:])
        assert p.features.shape == (params.feature_dim,)


def test_predict_attributes_validation():
    cloud = generate_scene(SceneSpec(seed=0, n_points=4))
    params = init_weights(0, c_raw=4, c=8)
    f_lfa = lfa_index_scatter(cloud, params.lfa, 0.32)
    f_gfa = gfa(cloud, params.attn)
    with pytest.raises(ShapeMismatch):
        predict_attributes(cloud, f_lfa[:2], f_gfa, params.head)
    with pytest.raises(ShapeMismatch):
        predict_attributes(cloud, f_lfa, f_gfa, LinearLayer(np.zeros((12, 99))))
    with pytest.raises(ShapeMismatch):  # head must emit at least 8 values
        predict_attributes(cloud, f_lfa, f_gfa, LinearLayer(np.zeros((7, 20))))


# ---------------------------------------------------------------------------
# Initialization and serialization


def test_init_weights_deterministic_and_bounded():
    a = init_weights(7, c_raw=4, c=32)
    b = init_weights(7, c_raw=4, c=32)
    assert np.array_equal(a.lfa.weight, b.lfa.weight)
    assert np.array_equal(a.head.bias, b.head.bias)
    c = init_weights(8, c_raw=4, c=32)
    assert not np.array_equal(a.lfa.weight, c.lfa.weight)
    for layer in (a.lfa, a.attn.qkv, a.attn.ffn1, a.head):
        bound = 1.0 / math.sqrt(layer.in_dim)
        assert np.max(np.abs(layer.weight)) < bound
        assert np.max(np.abs(layer.bias)) < bound


def test_init_weights_streams_are_per_tensor():
    # changing the head count alters no tensor values (layout only)
    one = init_weights(3, c_raw=4, c=32, n_heads=1)
    four = init_weights(3, c_raw=4, c=32, n_heads=4)
    assert np.array_equal(one.attn.qkv.weight, four.attn.qkv.weight)
    assert np.array_equal(one.lfa.weight, four.lfa.weight)
    # documented derivation: uniforms from the tensor's named stream
    stream = SplitMix64(stream_seed(3, "lfa.weight"))
    fan_in = 4 + 3
    vals = (2.0 * stream.uniforms(32 * fan_in) - 1.0) / math.sqrt(fan_in)
    assert np.array_equal(one.lfa.weight, vals.reshape(32, fan_in))


def test_init_weights_validation():
    with pytest.raises(InvalidSpec):
        init_weights(0, c_raw=4, c=0)
    with pytest.raises(InvalidSpec):
        init_weights(0, c_raw=4, c=8, n_heads=3)
    with pytest.raises(InvalidSpec, match="c_raw"):
        init_weights(0, c_raw=0, c=8)  # zero fan-in of the attention input


def test_init_weights_checks_the_tensor_bytes_before_drawing_them():
    params = init_weights(3, c_raw=5, c=16, n_heads=2)
    held = sum(v.nbytes for k, v in _named_tensors(params).items()
               if not (k.startswith("meta.") or k.endswith(".eps")))
    assert weights_mem_bytes(5, 16) == held
    # the widest cloud whose weights still fit, and one channel more
    per_channel = weights_mem_bytes(1, 64) - weights_mem_bytes(0, 64)
    widest = (MAX_WEIGHT_BYTES - weights_mem_bytes(0, 64)) // per_channel
    assert weights_mem_bytes(widest, 64) <= MAX_WEIGHT_BYTES < weights_mem_bytes(widest + 1, 64)
    with pytest.raises(AllocationLimit, match=f"c_raw={widest + 1}, c=64 need"):
        init_weights(0, c_raw=widest + 1, c=64)
    with pytest.raises(AllocationLimit, match="c_raw=4000000000"):
        init_weights(0, c_raw=4_000_000_000)  # 6.4 TB


def test_weights_roundtrip(tmp_path):
    params = init_weights(9, c_raw=4, c=16, n_heads=2, r=0.5, s_min=0.01)
    path = tmp_path / "w.rgwt"
    save_weights(params, path)
    again = load_weights(path)
    assert np.array_equal(params.lfa.weight, again.lfa.weight)
    assert np.array_equal(params.lfa.bias, again.lfa.bias)
    assert np.array_equal(params.attn.qkv.weight, again.attn.qkv.weight)
    assert np.array_equal(params.attn.ffn2.bias, again.attn.ffn2.bias)
    assert np.array_equal(params.head.weight, again.head.weight)
    assert again.attn.n_heads == 2
    assert again.r == 0.5 and again.s_min == 0.01
    # canonical bytes: saving the loaded params reproduces the file
    second = tmp_path / "w2.rgwt"
    save_weights(again, second)
    assert path.read_bytes() == second.read_bytes()


def test_weights_rejects_malformed(tmp_path):
    params = init_weights(0, c_raw=4, c=8)
    path = tmp_path / "w.rgwt"
    save_weights(params, path)
    blob = path.read_bytes()
    bad_magic = tmp_path / "bad1.rgwt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_weights(bad_magic)
    truncated = tmp_path / "bad2.rgwt"
    truncated.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(FormatError):
        load_weights(truncated)
    bad_version = tmp_path / "bad3.rgwt"
    bad_version.write_bytes(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError):
        load_weights(bad_version)


def _rgwt(named, tail=b""):
    """RGWT bytes of named float64 tensors (a name may be raw bytes), then ``tail``."""
    blob = b"RGWT" + struct.pack("<I", 1)
    for name, arr in named.items():
        raw = name if isinstance(name, bytes) else name.encode("utf-8")
        arr = np.asarray(arr, dtype="<f8")
        blob += struct.pack(f"<I{len(raw)}sI{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape)
        blob += arr.tobytes()
    return blob + tail


def _tensor_header(name, *dims):
    return struct.pack(f"<I{len(name)}sI{len(dims)}I", len(name), name, len(dims), *dims)


#: SHA-256 of save_weights(init_weights(**kwargs)): pins the RGWT layout,
#: the tensor order and every initial value
PINNED_WEIGHTS = [
    (dict(seed=0, c_raw=4, c=8),
     "cb5d22dcfee15455832657242c690896cbb1dffab759f70aacb8757ba4d89a3f"),
    (dict(seed=9, c_raw=4, c=16, n_heads=2, r=0.5, s_min=0.01),
     "b247e0dd0a318117a10fe895976168582902ef3c0c0be694ece4ed05decb9e81"),
    (dict(seed=5, c_raw=1, c=4, n_heads=4, r=1.25, s_min=0.0),
     "9b34b456033e5685e7dc52128ada3b36f4d80e12ceaeabd19b1b179254c5d6b5"),
]


@pytest.mark.parametrize("kwargs,digest", PINNED_WEIGHTS)
def test_save_weights_bytes_are_pinned(tmp_path, kwargs, digest):
    params = init_weights(**kwargs)
    path = tmp_path / "w.rgwt"
    save_weights(params, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert path.read_bytes() == _rgwt(_named_tensors(params))  # the writer the tests below use


_BAD_WEIGHTS = {
    "non-UTF-8 name": ({b"\xff\xfe": 1.0}, FormatError),
    "1-D eps": ({"gfa.ln1.eps": [1e-5, 1e-5]}, FormatError),
    "1-D meta.r": ({"meta.r": [0.32]}, FormatError),
    "2-D meta.n_heads": ({"meta.n_heads": [[1.0]]}, FormatError),
    "NaN n_heads": ({"meta.n_heads": math.nan}, FormatError),
    "infinite n_heads": ({"meta.n_heads": math.inf}, FormatError),
    "fractional n_heads": ({"meta.n_heads": 1.5}, FormatError),
    "negative eps": ({"gfa.ln2.eps": -1.0}, InvalidSpec),
    "zero eps": ({"gfa.ln1.eps": 0.0}, InvalidSpec),
    "NaN eps": ({"gfa.ln1.eps": math.nan}, InvalidSpec),
    "negative r": ({"meta.r": -1.0}, InvalidSpec),
    "NaN r": ({"meta.r": math.nan}, InvalidSpec),
    "r whose square overflows": ({"meta.r": 1e200}, InvalidSpec),
    "negative s_min": ({"meta.s_min": -1.0}, InvalidSpec),
    "infinite s_min": ({"meta.s_min": math.inf}, InvalidSpec),
    "NaN in a weight": ({"gfa.qkv.weight": np.full((24, 8), math.nan)}, InvalidSpec),
    "infinite bias": ({"lfa.bias": np.full(8, -math.inf)}, InvalidSpec),
    "NaN gamma": ({"gfa.ln2.gamma": np.full(8, math.nan)}, InvalidSpec),
    "infinite beta": ({"gfa.ln1.beta": np.full(8, math.inf)}, InvalidSpec),
}


@pytest.mark.parametrize("case", sorted(_BAD_WEIGHTS))
def test_load_weights_raises_a_typed_error_for_a_bad_tensor(tmp_path, case):
    changes, error = _BAD_WEIGHTS[case]
    named = {**_named_tensors(init_weights(0, c_raw=4, c=8)), **changes}
    path = tmp_path / "bad.rgwt"
    path.write_bytes(_rgwt(named))
    with pytest.raises(error):
        load_weights(path)


@pytest.mark.parametrize("dims", [(65536,) * 4, (1 << 20,) * 3, (1 << 31,), (2, 500)],
                         ids=["four-65536s", "2^60-values", "16-GiB", "one-value-too-many"])
def test_load_weights_rejects_dims_beyond_the_bytes_left(tmp_path, dims):
    # np.prod of four 65536s wraps to 0 in int64; the loader counts exactly
    named = _named_tensors(init_weights(0, c_raw=4, c=8))
    path = tmp_path / "big.rgwt"
    path.write_bytes(_rgwt(named, _tensor_header(b"extra", *dims) + bytes(8 * 999)))
    with pytest.raises(FormatError, match="truncated"):
        load_weights(path)


def test_load_weights_rejects_a_nan_feature_row_of_the_head(tmp_path):
    # feature rows pass no other check: this file used to encode a 50-point
    # scene into a map with 4096 NaN values, without an error or a warning
    params = init_weights(1, c_raw=4, c=8)
    params.head.weight[7] = math.nan
    path = tmp_path / "nan.rgwt"
    save_weights(params, path)
    with pytest.raises(InvalidSpec, match="weight"):
        load_weights(path)


def test_params_reject_out_of_range_values():
    params = init_weights(0, c_raw=4, c=8)
    for r in (0.0, -1.0, math.nan, math.inf, 1e200):
        with pytest.raises(InvalidSpec, match="radius"):
            dataclasses.replace(params, r=r)
    for s_min in (-1e-9, math.nan, math.inf):
        with pytest.raises(InvalidSpec, match="s_min"):
            dataclasses.replace(params, s_min=s_min)
    with pytest.raises(InvalidSpec, match="radius"):
        init_weights(0, c_raw=4, c=8, r=math.nan)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidSpec, match="eps"):
            LayerNormParams(np.ones(3), np.zeros(3), eps)
    assert isinstance(dataclasses.replace(params, r=1e-100, s_min=0.0), PgeParams)
