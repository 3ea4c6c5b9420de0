"""Local/global aggregation: hand examples, brute-force neighbor oracle,
cross-implementation equivalence, attribute head, weight I/O."""

import math

import numpy as np
import pytest
from scipy.special import erf

from rgkit.aggregation import (
    AttentionBlock,
    LayerNormParams,
    LinearLayer,
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
)
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
    with pytest.raises(InvalidSpec):
        fn(cloud, layer, 0.0)
    with pytest.raises(InvalidSpec):
        fn(cloud, layer, -1.0)
    with pytest.raises(ShapeMismatch):
        fn(cloud, init_weights(0, c_raw=5, c=8).lfa, 0.32)


@pytest.mark.parametrize("r", [0.1, 0.32, 1.0, 5.0])
def test_lfa_implementations_agree(r):
    cloud = generate_scene(SceneSpec(seed=21, n_points=137))
    layer = init_weights(21, c_raw=4, c=24).lfa
    reference = lfa_traversal(cloud, layer, r)
    for fn in (lfa_broadcast_mask, lfa_index_scatter):
        assert np.max(np.abs(fn(cloud, layer, r) - reference)) <= 1e-9


def test_neighbor_index_matches_bruteforce():
    cloud = generate_scene(SceneSpec(seed=8, n_points=150))
    r = 0.6
    index = build_neighbor_index(cloud, r)
    got = list(zip(index.row_idx.tolist(), index.col_idx.tolist()))
    xs, ys, zs = (cloud.positions[:, k].tolist() for k in range(3))
    want = []
    for i in range(len(cloud)):
        for j in range(len(cloud)):
            dx, dy, dz = xs[i] - xs[j], ys[i] - ys[j], zs[i] - zs[j]
            if dx * dx + dy * dy + dz * dz < r * r:
                want.append((i, j))
    assert got == want  # same pairs, same (row-major) order
    assert index.counts().sum() == len(want)
    assert np.all(index.counts() >= 1)  # self pair guarantees nonzero rows


def test_broadcast_respects_memory_cap():
    cloud = generate_scene(SceneSpec(seed=2, n_points=300))
    layer = init_weights(2, c_raw=4, c=8).lfa
    with pytest.raises(AllocationLimit):
        lfa_broadcast_mask(cloud, layer, 0.32, mem_cap=10_000)
    # the lean implementations have no dense N x N buffer to cap
    lfa_index_scatter(cloud, layer, 0.32)


def test_memory_estimates():
    assert broadcast_mem_bytes(1000, 4) == 1000 * 1000 * (8 * 7 + 9)
    assert traversal_mem_bytes(1000, 4, 64) == 8 * 1000 * (4 + 3 + 64)
    cloud = generate_scene(SceneSpec(seed=2, n_points=400))
    pairs = len(build_neighbor_index(cloud, 0.32).row_idx)
    est = index_scatter_mem_bytes(400, 4, 64, pairs)
    assert est > 0
    # the sparse estimate must undercut the dense one at this scale
    assert est < broadcast_mem_bytes(400, 4)


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
