"""Box-to-Gaussian conversion, KL divergence exactness and invariances,
analytic gradients against finite differences, and box file I/O."""

import dataclasses
import math

import numpy as np
import pytest

from rgkit.boxloss import (
    SIZE_FLOOR,
    BglConfig,
    Box3D,
    GaussianDistribution3D,
    _clamped,
    _columns,
    _kl_and_gradient,
    bgl,
    bgl_gradient,
    box_to_gaussian,
    fd_gradient,
    kl_divergence,
    read_boxes,
    write_boxes,
)
from rgkit.errors import (
    EmptyBatch,
    FormatError,
    InvalidSpec,
    LengthMismatch,
    SingularCovariance,
)
from rgkit.config import RunConfig
from rgkit.geom import DET_EPS, mat3_det, rotmat_z
from rgkit.rng import SplitMix64, stream_seed


def _random_box(gen, span=3.0):
    pos = gen.normals(3) * span
    dims = 0.5 + gen.uniforms(3) * 3.0
    theta = (gen.next_f64() * 2.0 - 1.0) * math.pi
    return Box3D(pos[0], pos[1], pos[2], dims[0], dims[1], dims[2], theta)


# ---------------------------------------------------------------------------
# Conversion


def test_unit_cube_at_half_sharpness_is_standard_normal():
    g = box_to_gaussian(Box3D(1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.0), a=0.5)
    assert np.array_equal(g.mu, [1.0, 2.0, 3.0])
    assert np.array_equal(g.sigma, np.eye(3))
    assert g.det == 1.0


def test_conversion_dimension_scaling():
    g = box_to_gaussian(Box3D(0, 0, 0, 4.0, 2.0, 6.0, 0.0), a=1.0)
    assert np.array_equal(g.sigma, np.diag([4.0, 1.0, 9.0]))
    assert g.det == 36.0


def test_conversion_yaw_quarter_turn_swaps_axes():
    g = box_to_gaussian(Box3D(0, 0, 0, 4.0, 2.0, 6.0, math.pi / 2.0), a=1.0)
    assert np.allclose(g.sigma, np.diag([1.0, 4.0, 9.0]), atol=1e-15)


def test_conversion_theta_plus_pi_is_identical_shape():
    gen = SplitMix64(stream_seed(90, "pi"))
    for _ in range(20):
        b = _random_box(gen)
        flipped = Box3D(b.x, b.y, b.z, b.l, b.w, b.h, b.theta + math.pi)
        s1 = box_to_gaussian(b, 1.0).sigma
        s2 = box_to_gaussian(flipped, 1.0).sigma
        assert np.allclose(s1, s2, rtol=0, atol=1e-12)


def test_conversion_det_cache_matches_dense_determinant():
    gen = SplitMix64(stream_seed(91, "det"))
    for a in (0.5, 1.0, 3.0):
        b = _random_box(gen)
        g = box_to_gaussian(b, a)
        assert g.det == pytest.approx(mat3_det(g.sigma), rel=1e-12)


def test_conversion_rejects_bad_sharpness_and_degenerate_dims():
    box = Box3D(0, 0, 0, 1, 1, 1, 0)
    for bad_a in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidSpec):
            box_to_gaussian(box, bad_a)
    flat = Box3D(0, 0, 0, 1.0, 0.0, 1.0, 0.0)
    clamped = box_to_gaussian(flat, 0.5)  # silently floored at 1e-3
    assert clamped.sigma[1, 1] == pytest.approx(1e-6, rel=1e-12)


def test_box_requires_finite_values():
    with pytest.raises(InvalidSpec):
        Box3D(0, 0, 0, 1, 1, float("inf"), 0)


def test_box_is_slotted_frozen_and_finite():
    # a batch holds thousands of boxes: no per-box __dict__
    box = Box3D(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5)
    assert not hasattr(box, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        box.x = 0.0
    # a new name: AttributeError, or TypeError where dataclasses' frozen
    # __setattr__ calls super() with the class that slots=True replaced (3.10, 3.11)
    with pytest.raises((AttributeError, TypeError)):
        box.extra = 1.0
    for i, bad in enumerate((float("nan"), float("inf"), -float("inf")) * 3):
        args = [1.0] * 7
        args[i % 7] = bad
        with pytest.raises(InvalidSpec):
            Box3D(*args)
    assert box == Box3D(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5)
    assert box.as_array().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5]


# ---------------------------------------------------------------------------
# Divergence


def test_self_divergence_is_exactly_zero():
    gen = SplitMix64(stream_seed(92, "self"))
    for _ in range(20):
        g = box_to_gaussian(_random_box(gen), 1.0)
        comp = kl_divergence(g, g)
        assert comp.total == 0.0
        assert comp.mahalanobis == 0.0 and comp.trace == 3.0 and comp.logdet == 0.0


def test_pinned_divergence_values():
    eye = GaussianDistribution3D(np.zeros(3), np.eye(3))
    shifted = GaussianDistribution3D(np.array([1.0, 0.0, 0.0]), np.eye(3))
    assert kl_divergence(shifted, eye).total == 0.5
    wide = GaussianDistribution3D(np.zeros(3), 4.0 * np.eye(3))
    want = 0.5 * (9.0 - 6.0 * math.log(2.0))
    comp = kl_divergence(wide, eye)
    assert abs(comp.total - want) <= 1e-12
    assert comp.trace == 12.0
    assert comp.logdet == pytest.approx(-math.log(64.0), rel=1e-15)


def test_divergence_components_sum_to_total():
    gen = SplitMix64(stream_seed(93, "sum"))
    for _ in range(20):
        comp = kl_divergence(
            box_to_gaussian(_random_box(gen), 1.0),
            box_to_gaussian(_random_box(gen), 1.0),
        )
        want = 0.5 * (comp.mahalanobis + comp.trace + comp.logdet - 3.0)
        assert comp.total == pytest.approx(want, abs=1e-15)
        assert comp.total >= -1e-12  # non-negativity


def test_divergence_is_asymmetric():
    gen = SplitMix64(stream_seed(94, "asym"))
    different = 0
    for _ in range(10):
        p = box_to_gaussian(_random_box(gen), 1.0)
        q = box_to_gaussian(_random_box(gen), 1.0)
        if abs(kl_divergence(p, q).total - kl_divergence(q, p).total) > 1e-6:
            different += 1
    assert different >= 8


def test_divergence_rigid_motion_invariance():
    gen = SplitMix64(stream_seed(95, "rigid"))
    shift = np.array([4.0, -2.0, 1.0])
    phi = 0.77
    for _ in range(10):
        b1, b2 = _random_box(gen), _random_box(gen)
        base = kl_divergence(box_to_gaussian(b1, 1.0), box_to_gaussian(b2, 1.0)).total

        def moved(b):
            rot = rotmat_z(phi)
            center = rot @ np.array([b.x, b.y, b.z]) + shift
            return Box3D(center[0], center[1], center[2], b.l, b.w, b.h, b.theta + phi)

        after = kl_divergence(
            box_to_gaussian(moved(b1), 1.0), box_to_gaussian(moved(b2), 1.0)
        ).total
        assert after == pytest.approx(base, rel=1e-9, abs=1e-10)


def test_divergence_rejects_singular_target():
    flat = GaussianDistribution3D(np.zeros(3), np.diag([1.0, 1.0, 0.0]))
    ok = GaussianDistribution3D(np.zeros(3), np.eye(3))
    with pytest.raises(SingularCovariance):
        kl_divergence(ok, flat)
    with pytest.raises(SingularCovariance):
        kl_divergence(flat, ok)


# ---------------------------------------------------------------------------
# Batch loss and config


def test_bgl_batch_mean_and_class_resolution():
    cfg = BglConfig(a_per_class={"car": 3.0}, a_default=1.0)
    pred = [Box3D(0, 0, 0, 2, 2, 2, 0.0), Box3D(5, 0, 0, 2, 2, 2, 0.1)]
    gt = [Box3D(0.5, 0, 0, 2, 2, 2, 0.0), Box3D(5, 0.5, 0, 2, 2, 2, 0.1)]
    per_pair = [
        kl_divergence(box_to_gaussian(p, 1.0), box_to_gaussian(t, 1.0)).total
        for p, t in zip(pred, gt)
    ]
    assert bgl(pred, gt, None, cfg) == pytest.approx(sum(per_pair) / 2.0, rel=1e-15)
    # class "car" switches a to 3, inflating the mahalanobis term 9x
    with_cls = bgl(pred, gt, ["car", "car"], cfg)
    assert with_cls > bgl(pred, gt, None, cfg)
    defaults = RunConfig().bgl_config()
    assert defaults.a_for("truck") == 3.0
    assert defaults.a_for("unknown") == 1.0
    assert defaults.a_for(None) == 1.0


def test_bgl_validation():
    cfg = RunConfig().bgl_config()
    boxes = [Box3D(0, 0, 0, 1, 1, 1, 0)]
    with pytest.raises(LengthMismatch):
        bgl(boxes, boxes * 2, None, cfg)
    with pytest.raises(LengthMismatch):
        bgl(boxes, boxes, ["car", "car"], cfg)
    with pytest.raises(EmptyBatch):
        bgl([], [], None, cfg)
    for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            BglConfig(a_per_class={"car": bad})
        with pytest.raises(InvalidSpec):
            BglConfig(a_per_class={}, a_default=bad)


# ---------------------------------------------------------------------------
# Gradients


def test_gradient_matches_finite_differences():
    gen = SplitMix64(stream_seed(96, "grad"))
    worst = 0.0
    for _ in range(200):
        pred, gt = _random_box(gen), _random_box(gen)
        analytic = bgl_gradient(pred, gt, a=1.0)
        numeric = fd_gradient(pred, gt, a=1.0, step=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = np.maximum(worst, np.max(rel))  # a NaN stays, where max would drop it
    assert worst <= 1e-6  # typical agreement is ~1e-9


def test_gradient_zero_at_optimum():
    box = Box3D(1.0, -2.0, 0.5, 3.0, 1.5, 1.2, 0.4)
    grad = bgl_gradient(box, box, a=1.0)
    assert np.max(np.abs(grad)) < 1e-12


def test_gradient_direction_reduces_loss():
    pred = Box3D(1.0, 0.0, 0.0, 2.5, 1.5, 1.5, 0.3)
    gt = Box3D(0.0, 0.0, 0.0, 2.0, 1.8, 1.4, 0.1)
    grad = bgl_gradient(pred, gt, a=1.0)
    before = kl_divergence(box_to_gaussian(pred, 1.0), box_to_gaussian(gt, 1.0)).total
    stepped = Box3D(*(pred.as_array() - 1e-3 * grad))
    after = kl_divergence(box_to_gaussian(stepped, 1.0), box_to_gaussian(gt, 1.0)).total
    assert after < before


def test_gradient_sharpness_validation():
    box = Box3D(0, 0, 0, 1, 1, 1, 0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            bgl_gradient(box, box, a=bad)
    # a BglConfig cannot carry such an a to bgl (test_bgl_validation)


# ---------------------------------------------------------------------------
# The yaw-frame kernel behind bgl and bgl_gradient


def _thin_pairs(seed, n):
    """Pairs of thin, elongated boxes (one axis 0.5-10 mm, some clamped to
    SIZE_FLOOR, the others up to 20 m) at yaws near +-pi and +-2pi."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        def box(center, theta):
            dims = rng.permutation([10 ** rng.uniform(-3.3, -2), rng.uniform(1, 20),
                                    rng.uniform(0.5, 20)])
            return Box3D(*center, *dims, theta)

        theta = rng.choice([math.pi, -math.pi, 2 * math.pi, -2 * math.pi]) + rng.normal() * 1e-3
        gt = box(rng.normal(size=3) * 5, theta)
        pred = box(np.array([gt.x, gt.y, gt.z]) + rng.normal(size=3) * 0.1,
                   theta + rng.normal() * 1e-2)
        pairs.append((pred, gt))
    return pairs


def _mp_divergence(mp, params, gt, a):
    """KL at 50 digits from dense covariances, ``mp.inverse`` and ``mp.det``;
    ``params`` are the predicted box parameters, dimensions already clamped."""
    def cov(theta, dims):
        c, s = mp.cos(theta), mp.sin(theta)
        rot = mp.matrix([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        return rot * mp.diag([(d / (2 * mp.mpf(a))) ** 2 for d in dims]) * rot.T

    gdims = [mp.mpf(max(d, SIZE_FLOOR)) for d in (gt.l, gt.w, gt.h)]
    sigma = cov(mp.mpf(gt.theta), gdims)
    sigma_hat = cov(params[6], params[3:6])
    inv = mp.inverse(sigma)
    delta = mp.matrix([params[0] - gt.x, params[1] - gt.y, params[2] - gt.z])
    trace = sum((inv * sigma_hat)[i, i] for i in range(3))
    return ((delta.T * inv * delta)[0] + trace
            + mp.log(mp.det(sigma)) - mp.log(mp.det(sigma_hat)) - 3) / 2


@pytest.mark.parametrize("a", [1.0, 3.0])
def test_kernel_matches_50_digit_reference_on_thin_boxes(a):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for k, (pred, gt) in enumerate(_thin_pairs(7, 40)):
            # the gradient is taken at the clamped dimensions
            params = [mp.mpf(v) for v in _columns([pred])[:, 0]]
            want = _mp_divergence(mp, params, gt, a)
            got = bgl([pred], [gt], None, BglConfig({}, a))
            assert abs(float(got - want)) <= 1e-13 * max(1.0, abs(float(want)))
            if k % 4:
                continue
            grad = bgl_gradient(pred, gt, a)
            for j in range(7):
                def along(t, j=j):
                    return _mp_divergence(mp, params[:j] + [t] + params[j + 1:], gt, a)
                want_j = mp.diff(along, params[j])
                assert abs(float(grad[j] - want_j)) <= 1e-13 * max(1.0, abs(float(want_j)))


def _benchmark_like_pairs(seed, n=400):
    """Cars, trucks (a=3), pedestrians and cyclists (a=1) over a 70 m x 80 m
    field, predictions perturbed by ~10% of the size and ~0.15 rad."""
    rng = np.random.default_rng(seed)
    means = {"car": (4.5, 1.9, 1.6), "truck": (10.0, 2.5, 3.2),
             "pedestrian": (0.6, 0.6, 1.7), "cyclist": (1.8, 0.6, 1.6)}
    classes = list(rng.choice(list(means), n))
    preds, gts = [], []
    for name in classes:
        dims = np.array(means[name]) * np.clip(1 + 0.1 * rng.normal(size=3), 0.7, 1.3)
        center = rng.uniform([0, -40, -1], [70, 40, 1])
        theta = rng.uniform(-math.pi, math.pi)
        gts.append(Box3D(*center, *dims, theta))
        preds.append(Box3D(*(center + 0.1 * dims * rng.normal(size=3)),
                           *(dims * np.exp(0.1 * rng.normal(size=3))),
                           theta + 0.15 * rng.normal()))
    return preds, gts, classes


@pytest.mark.parametrize("seed", [11, 12])
def test_kernel_matches_dense_oracle_and_bgl_sums_in_index_order(seed):
    preds, gts, classes = _benchmark_like_pairs(seed)
    cfg = RunConfig().bgl_config()
    a = np.array([cfg.a_for(c) for c in classes])
    terms, _ = _kl_and_gradient(_columns(preds), _columns(gts), a, np, np.all)
    total = 0.0
    for i, (p, t) in enumerate(zip(preds, gts)):
        comp = kl_divergence(box_to_gaussian(p, a[i]), box_to_gaussian(t, a[i]))
        for got, want in zip(terms, (comp.mahalanobis, comp.trace, comp.logdet, comp.total)):
            assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))
        total += float(terms[3][i])
    assert bgl(preds, gts, classes, cfg) == total / len(gts)


def test_kernel_on_numpy_rows_matches_math_floats():
    preds, gts, classes = _benchmark_like_pairs(13, 100)
    thin_preds, thin_gts = zip(*_thin_pairs(13, 100))
    preds, gts = preds + list(thin_preds), gts + list(thin_gts)
    a = np.array([3.0 if c in ("car", "truck") else 1.0 for c in classes] + [1.0] * 100)
    terms, grad = _kl_and_gradient(_columns(preds), _columns(gts), a, np, np.all)
    for i, (p, t) in enumerate(zip(preds, gts)):
        terms_f, grad_f = _kl_and_gradient(_clamped(p), _clamped(t), float(a[i]), math, bool)
        for row, value in zip(terms, terms_f):
            assert abs(row[i] - value) <= 1e-12 * max(1.0, abs(value))
        for j in range(7):
            assert abs(grad[j][i] - grad_f[j]) <= 1e-12 * max(1.0, abs(grad_f[j]))


@pytest.mark.parametrize("seed", [1, 11, 61, 83, 97])
def test_batch_gradient_equals_per_pair_gradient_bit_for_bit(seed):
    # NumPy's cos/sin on rows and math's on floats agree here; a batch
    # gradient may replace the per-pair loop only while this holds
    cfg = RunConfig().bgl_config()
    for batch in range(4):
        preds, gts, classes = _benchmark_like_pairs([seed, batch], 1000)
        a = np.array([cfg.a_for(c) for c in classes])
        grad = np.stack(_kl_and_gradient(_columns(preds), _columns(gts), a, np, np.all)[1], axis=1)
        want = np.array([bgl_gradient(p, t, a_i) for p, t, a_i in zip(preds, gts, a)])
        assert grad.tobytes() == want.tobytes()


def test_gradient_matches_finite_differences_on_elongated_boxes():
    preds, gts, classes = _benchmark_like_pairs(14, 100)
    rng = np.random.default_rng(14)
    for _ in range(50):  # 0.1 m x 20 m slabs at any yaw
        gt = Box3D(*rng.normal(size=3), 20.0, 0.1, 1.0, rng.uniform(-7, 7))
        preds.append(Box3D(gt.x + 0.05, gt.y - 0.02, gt.z, 19.0, 0.12, 1.1, gt.theta + 0.05))
        gts.append(gt)
        classes.append("pedestrian")
    cfg = RunConfig().bgl_config()
    for p, t, c in zip(preds, gts, classes):
        analytic = bgl_gradient(p, t, cfg.a_for(c))
        numeric = fd_gradient(p, t, cfg.a_for(c))
        assert np.all(np.abs(analytic - numeric) <= 1e-5 * np.maximum(1.0, np.abs(analytic)))


def test_identical_boxes_give_exactly_zero_divergence_and_gradient():
    gen = SplitMix64(stream_seed(98, "zero"))
    boxes = [_random_box(gen) for _ in range(30)]
    boxes += [pred for pred, _ in _thin_pairs(98, 30)]
    boxes += [Box3D(1e6, -1e6, 3.0, 1e-4, 40.0, 2.0, 1e6), Box3D(0, 0, 0, 1, 1, 1, -2 * math.pi)]
    for a in (0.5, 1.0, 3.0):
        cfg = BglConfig({}, a)
        assert bgl(boxes, boxes, None, cfg) == 0.0
        for b in boxes:
            assert bgl([b], [b], None, cfg) == 0.0
            assert np.all(bgl_gradient(b, b, a) == 0.0)


def test_target_determinant_threshold_matches_the_oracle():
    pred = Box3D(0, 0, 0, 0.02, 0.02, 0.02, 0.0)
    cfg = BglConfig({}, 0.5)  # 2a = 1, so the variances are the squared dimensions
    above = Box3D(0, 0, 0, 0.01, 0.01, 0.01 * (1 + 1e-3), 0.3)
    below = Box3D(0, 0, 0, 0.01, 0.01, 0.01 * (1 - 1e-3), 0.3)
    assert (0.01 * 0.01) ** 2 * (0.01 * (1 + 1e-3)) ** 2 > DET_EPS
    assert (0.01 * 0.01) ** 2 * (0.01 * (1 - 1e-3)) ** 2 <= DET_EPS
    kl_divergence(box_to_gaussian(pred, 0.5), box_to_gaussian(above, 0.5))
    assert math.isfinite(bgl([pred], [above], None, cfg))
    assert np.all(np.isfinite(bgl_gradient(pred, above, 0.5)))
    with pytest.raises(SingularCovariance):
        kl_divergence(box_to_gaussian(pred, 0.5), box_to_gaussian(below, 0.5))
    with pytest.raises(SingularCovariance):
        bgl([pred], [below], None, cfg)
    with pytest.raises(SingularCovariance):
        bgl_gradient(pred, below, 0.5)
    # a predicted determinant that underflows to zero is singular too
    tiny, wide = Box3D(0, 0, 0, 1e-3, 1e-3, 1e-3, 0), Box3D(0, 0, 0, 2e60, 2e60, 2e60, 0)
    with pytest.raises(SingularCovariance):
        bgl([tiny], [wide], None, BglConfig({}, 1e60))
    with pytest.raises(SingularCovariance):
        bgl_gradient(tiny, wide, 1e60)


def test_overflowing_boxes_are_invalid_spec():
    unit = Box3D(0, 0, 0, 1, 1, 1, 0)
    huge = Box3D(0, 0, 0, 1e308, 1, 1, 0)  # (l/2a)^2 overflows
    far = Box3D(1e308, 0, 0, 1, 1, 1, 0)
    spun = Box3D(0, 0, 0, 1, 1, 1, 1e308)
    cases = [(huge, unit), (unit, huge), (far, Box3D(-1e308, 0, 0, 1, 1, 1, 0)),
             (spun, Box3D(0, 0, 0, 1, 1, 1, -1e308))]
    for pred, gt in cases:
        with pytest.raises(InvalidSpec):
            bgl([unit, pred], [unit, gt], None, RunConfig().bgl_config())
        with pytest.raises(InvalidSpec):
            bgl_gradient(pred, gt, 1.0)
    # the dense oracle: (l/2a)^2 or (l w h / (2a)^3)^2 leaves float64
    big = Box3D(0, 0, 0, 1e110, 1e110, 1e110, 0)
    for box, a in ((unit, 1e103), (huge, 1.0), (big, 1.0)):
        with pytest.raises(InvalidSpec):
            box_to_gaussian(box, a)
        with pytest.raises(InvalidSpec):
            fd_gradient(unit, box, a)


# ---------------------------------------------------------------------------
# Box file I/O


def test_boxes_roundtrip(tmp_path):
    gen = SplitMix64(stream_seed(97, "io"))
    boxes = [_random_box(gen) for _ in range(8)]
    plain = tmp_path / "plain.csv"
    write_boxes(boxes, plain)
    back, classes = read_boxes(plain)
    assert classes is None
    assert all(np.array_equal(a.as_array(), b.as_array()) for a, b in zip(back, boxes))

    tagged = tmp_path / "tagged.csv"
    names = ["car", "truck", "pedestrian", "cyclist", "car", "bus", "car", "truck"]
    write_boxes(boxes, tagged, classes=names)
    back, classes = read_boxes(tagged)
    assert classes == names
    assert tagged.read_text().splitlines()[0] == "x,y,z,l,w,h,theta,class"


def test_boxes_io_validation(tmp_path):
    with pytest.raises(LengthMismatch):
        write_boxes([Box3D(0, 0, 0, 1, 1, 1, 0)], tmp_path / "x.csv", classes=["a", "b"])
    cases = {
        "empty.csv": "",
        "header.csv": "a,b,c\n",
        "columns.csv": "x,y,z,l,w,h,theta\n1,2,3\n",
        "numeric.csv": "x,y,z,l,w,h,theta\n1,2,3,4,5,6,zzz\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FormatError):
            read_boxes(path)


@pytest.mark.parametrize("cls", ["a,b", "x\ny", "car\r", "a\u2028b", "a\x1cb", " car", "car\t",
                                 "\ud800"])
def test_a_class_that_would_not_read_back_is_refused_before_the_file_opens(tmp_path, cls):
    path = tmp_path / "boxes.csv"
    with pytest.raises(InvalidSpec):
        write_boxes([Box3D(0, 0, 0, 1, 1, 1, 0)] * 2, path, classes=["car", cls])
    assert not path.exists()


def test_odd_but_one_field_classes_read_back(tmp_path):
    names = ["", "bus stop", "a=b", "é", "#1"]
    write_boxes([Box3D(0, 0, 0, 1, 1, 1, 0)] * len(names), tmp_path / "b.csv", classes=names)
    assert read_boxes(tmp_path / "b.csv")[1] == names


def test_non_utf8_box_file_is_a_format_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"x,y,z,l,w,h,theta\n\xff\xfe,1\n")
    with pytest.raises(FormatError):
        read_boxes(path)
