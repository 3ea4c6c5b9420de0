"""Acceptance gate: ten pinned criteria, each printing one PASS/FAIL line.

Every tolerance below is a frozen contract; loosening one is a breaking
change.  Criteria marked with a runtime budget also assert wall-clock
time.  Run with ``pytest -s`` to see the per-criterion lines live.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rgkit.aggregation import (
    broadcast_mem_bytes,
    init_weights,
    lfa_broadcast_mask,
    lfa_index_scatter,
    lfa_traversal,
)
from rgkit.bench import run_bench
from rgkit.boxloss import (
    Box3D,
    GaussianDistribution3D,
    bgl_gradient,
    box_to_gaussian,
    kl_divergence,
)
from rgkit.geom import covariance_from_scale_rot, quat_normalize, quat_to_rotmat
from rgkit.pointcloud import BevRange, SceneSpec, generate_scene
from rgkit.rng import SplitMix64, stream_seed
from rgkit.selftest import run_selftest
from rgkit.splat import (
    RasterSettings,
    encode,
    nonzero_pixels,
    pillar_scatter,
    project_to_bev,
    rasterize,
    rasterize_oracle,
)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _console(request):
    """Remember the capture manager so verdict lines can bypass capture."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    # write to the real console so each verdict stays visible in plain
    # `pytest -v` runs, where per-test stdout is captured
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _random_box(gen: SplitMix64, span: float = 3.0) -> Box3D:
    pos = gen.normals(3) * span
    dims = 0.5 + gen.uniforms(3) * 3.0
    theta = (gen.next_f64() * 2.0 - 1.0) * math.pi
    return Box3D(pos[0], pos[1], pos[2], dims[0], dims[1], dims[2], theta)


def test_01_lfa_oracle_equivalence():
    """Both optimized aggregations match the scalar traversal within 1e-9
    over 200 scenes spanning N in {1,10,100,1000,2000} and r in
    {0.1,0.32,1.0}; total runtime under 2 minutes."""
    tol = 1e-9
    budget_s = 120.0
    sizes = [1] * 60 + [10] * 60 + [100] * 50 + [1000] * 20 + [2000] * 10
    radii = (0.1, 0.32, 1.0)
    layer = init_weights(1000, c_raw=4, c=64).lfa
    started = time.perf_counter()
    worst = 0.0
    for i, n in enumerate(sizes):
        r = radii[i % 3]
        cloud = generate_scene(SceneSpec(seed=2000 + i, n_points=n))
        reference = lfa_traversal(cloud, layer, r)
        for fn in (lfa_broadcast_mask, lfa_index_scatter):
            diff = float(np.max(np.abs(fn(cloud, layer, r) - reference))) if n else 0.0
            worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    _report(
        "lfa-oracle-equivalence",
        worst <= tol and elapsed < budget_s,
        f"max |diff| {worst:.3g} (tol {tol:g}) over 200 scenes in {elapsed:.1f} s",
    )


def test_02_lfa_speed_and_memory_ordering():
    """At N=1000 the pairwise index implementation runs in at most one
    tenth of the traversal median and its analytic transient-memory
    estimate is at most one tenth of the dense broadcast buffer."""
    report = run_bench([1000], reps=5, seed=0)
    rows = {row.name: row for row in report.rows}
    assert report.gate_passed
    time_ratio = rows["index_scatter"].median_ms / rows["traversal"].median_ms
    mem_ratio = rows["index_scatter"].est_mem_bytes / rows["broadcast_mask"].est_mem_bytes
    ok = time_ratio <= 0.1 and mem_ratio <= 0.1
    _report(
        "lfa-speed-memory-ordering",
        ok,
        f"time ratio {time_ratio:.4f} (<= 0.1), mem ratio {mem_ratio:.4f} (<= 0.1) "
        f"[{rows['index_scatter'].median_ms:.2f} ms vs {rows['traversal'].median_ms:.2f} ms]",
    )


def _random_splats(seed: int, count: int, bev: BevRange) -> list:
    gen = SplitMix64(stream_seed(seed, "accept-splats"))
    splats = []
    for i in range(count):
        from rgkit.aggregation import GaussianPrimitive3D

        prim = GaussianPrimitive3D(
            mean=np.array([
                bev.x_min + gen.next_f64() * (bev.x_max - bev.x_min),
                bev.y_min + gen.next_f64() * (bev.y_max - bev.y_min),
                gen.next_f64() * 2.0 - 1.0,
            ]),
            scales=0.15 + gen.uniforms(3) * 1.2,
            quat=quat_normalize(gen.normals(4)),
            opacity=0.05 + 0.94 * gen.next_f64(),
            features=gen.normals(4),
        )
        splats.append(project_to_bev(prim, bev, lambda_blur=0.3, source_index=i))
    return splats


def test_03_rasterizer_oracle_equivalence():
    """Tiled rasterizer matches the full-frame float64 brute force within
    1e-4 on 50 scenes of up to 200 splats on up to 128x128 maps, early
    termination disabled; total runtime under 1 minute."""
    tol = 1e-4
    budget_s = 60.0
    started = time.perf_counter()
    worst = 0.0
    gen = SplitMix64(stream_seed(77, "accept-raster"))
    for i in range(50):
        h = 32 + gen.below(97)  # 32..128
        w = 32 + gen.below(97)
        count = 1 + gen.below(200)
        bev = BevRange(0.0, float(w) / 4.0, -float(h) / 8.0, float(h) / 8.0, h, w)
        splats = _random_splats(3000 + i, count, bev)
        settings = RasterSettings(t_min=0.0)
        tiled = rasterize(splats, bev, channels=4, settings=settings)
        oracle = rasterize_oracle(splats, bev, channels=4, settings=settings)
        diff = float(np.max(np.abs(
            tiled.data.astype(np.float64) - oracle.data.astype(np.float64)
        )))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    _report(
        "rasterizer-oracle-equivalence",
        worst <= tol and elapsed < budget_s,
        f"max |diff| {worst:.3g} (tol {tol:g}) over 50 scenes in {elapsed:.1f} s",
    )


def test_04_single_splat_analytic_values():
    """A unit-opacity Gaussian centered on a pixel yields 0.99*f there (the
    alpha clamp); two stacked copies yield f*(0.99 + 0.99*0.01), both
    within 1e-6 relative (early termination disabled for the stack)."""
    from rgkit.aggregation import GaussianPrimitive3D

    bev = BevRange(0.0, 16.0, -8.0, 8.0, 16, 16)
    prim = GaussianPrimitive3D(
        mean=np.array([8.5, 0.5, 0.0]),
        scales=np.array([0.5, 0.5, 0.5]),
        quat=np.array([1.0, 0.0, 0.0, 0.0]),
        opacity=1.0,
        features=np.array([2.0]),
    )
    settings = RasterSettings(t_min=0.0, lambda_blur=0.0)
    splat = project_to_bev(prim, bev, lambda_blur=0.0)
    single = float(rasterize([splat], bev, channels=1, settings=settings).data[0, 8, 8])
    double = float(rasterize([splat, splat], bev, channels=1,
                             settings=settings).data[0, 8, 8])
    want_single = 0.99 * 2.0
    want_double = 2.0 * (0.99 + 0.99 * 0.01)
    err_single = abs(single - want_single) / want_single
    err_double = abs(double - want_double) / want_double
    ok = err_single <= 1e-6 and err_double <= 1e-6
    _report(
        "single-splat-analytic",
        ok,
        f"single rel err {err_single:.3g}, stacked rel err {err_double:.3g} (tol 1e-6)",
    )


def test_05_density_exceeds_pillar_baseline():
    """Across 20 clustered scenes the splatted map has at least as many
    nonzero pixels as the one-pixel-per-point pillar scatter, strictly
    more on at least 18."""
    bev = BevRange(0.0, 51.2, -25.6, 25.6, 320, 320)
    params = init_weights(500, c_raw=4, c=32)
    settings = RasterSettings()
    ge, strict = 0, 0
    for i in range(20):
        cloud = generate_scene(SceneSpec(seed=4000 + i, n_points=200 + 20 * i, bev=bev))
        dense = nonzero_pixels(encode(cloud, params, bev, settings))
        sparse = nonzero_pixels(pillar_scatter(cloud, bev))
        ge += dense >= sparse
        strict += dense > sparse
    ok = ge == 20 and strict >= 18
    _report(
        "density-vs-pillar",
        ok,
        f"splat >= pillar on {ge}/20 scenes, strictly greater on {strict}/20 (need 20 and >= 18)",
    )


def test_06_kl_pinned_values_and_nonnegativity():
    """Self-divergence is exactly zero; the unit-shift and 4I cases match
    their closed forms within 1e-12; divergence stays >= -1e-12 over 1e5
    random SPD pairs."""
    eye = GaussianDistribution3D(np.zeros(3), np.eye(3))
    self_kl = kl_divergence(eye, eye).total
    box_self = kl_divergence(
        box_to_gaussian(Box3D(1, 2, 3, 4, 2, 1.5, 0.7), 1.0),
        box_to_gaussian(Box3D(1, 2, 3, 4, 2, 1.5, 0.7), 1.0),
    ).total
    shift_err = abs(kl_divergence(
        GaussianDistribution3D(np.array([1.0, 0.0, 0.0]), np.eye(3)), eye
    ).total - 0.5)
    wide_err = abs(kl_divergence(
        GaussianDistribution3D(np.zeros(3), 4.0 * np.eye(3)), eye
    ).total - 0.5 * (9.0 - 6.0 * math.log(2.0)))

    gen = SplitMix64(stream_seed(600, "accept-nonneg"))
    n_pairs = 100_000
    mus = gen.normals(6 * n_pairs).reshape(n_pairs, 2, 3) * 2.0
    scales = 0.2 + gen.uniforms(6 * n_pairs).reshape(n_pairs, 2, 3) * 2.0
    quats = gen.normals(8 * n_pairs).reshape(n_pairs, 2, 4)
    lowest = math.inf
    for i in range(n_pairs):
        g = GaussianDistribution3D(
            mus[i, 1],
            covariance_from_scale_rot(scales[i, 1], quat_to_rotmat(quat_normalize(quats[i, 1]))),
        )
        if i % 4 == 0:
            # probe the boundary: a barely perturbed copy of the target,
            # where a sign error in any term would push the total negative
            eps = 1e-7
            g_hat = GaussianDistribution3D(
                g.mu + eps * mus[i, 0], g.sigma + eps * np.diag(scales[i, 0])
            )
        else:
            g_hat = GaussianDistribution3D(
                mus[i, 0],
                covariance_from_scale_rot(
                    scales[i, 0], quat_to_rotmat(quat_normalize(quats[i, 0]))
                ),
            )
        lowest = min(lowest, kl_divergence(g_hat, g).total)
    ok = (
        self_kl == 0.0
        and box_self == 0.0
        and shift_err <= 1e-12
        and wide_err <= 1e-12
        and lowest >= -1e-12
    )
    _report(
        "kl-pinned-values",
        ok,
        f"self {self_kl!r}, shift err {shift_err:.3g}, 4I err {wide_err:.3g}, "
        f"min over 1e5 pairs {lowest:.3g} (>= -1e-12)",
    )


def test_07_sharpness_invariance():
    """Over 1e4 random box pairs and a in {0.5, 1, 3}: trace and logdet
    components agree across a within 1e-10, and mahalanobis(a) equals
    a^2 * mahalanobis(1) within 1e-10 relative."""
    gen = SplitMix64(stream_seed(700, "accept-ainv"))
    a_values = (0.5, 1.0, 3.0)
    worst_shape = 0.0
    worst_maha = 0.0
    for _ in range(10_000):
        pred, gt = _random_box(gen), _random_box(gen)
        comps = {
            a: kl_divergence(box_to_gaussian(pred, a), box_to_gaussian(gt, a))
            for a in a_values
        }
        base = comps[1.0]
        for a in a_values:
            worst_shape = max(
                worst_shape,
                abs(comps[a].trace - base.trace),
                abs(comps[a].logdet - base.logdet),
            )
            denom = max(abs(base.mahalanobis), 1e-300)
            worst_maha = max(
                worst_maha, abs(comps[a].mahalanobis - a * a * base.mahalanobis) / denom
            )
    ok = worst_shape <= 1e-10 and worst_maha <= 1e-10
    _report(
        "sharpness-invariance",
        ok,
        f"shape terms max |diff| {worst_shape:.3g} (tol 1e-10), "
        f"mahalanobis scaling max rel err {worst_maha:.3g} (tol 1e-10)",
    )


def test_08_gradient_check():
    """Analytic loss gradients agree with central finite differences
    (step 1e-5) within 1e-4 relative, denominator max(1, |g|), on 1000
    random pairs in under 30 seconds."""
    tol = 1e-4
    budget_s = 30.0
    step = 1e-5
    gen = SplitMix64(stream_seed(800, "accept-grad"))
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        pred, gt = _random_box(gen), _random_box(gen)
        analytic = bgl_gradient(pred, gt, a=1.0)
        base = pred.as_array()
        target = box_to_gaussian(gt, 1.0)
        for k in range(7):
            hi, lo = base.copy(), base.copy()
            hi[k] += step
            lo[k] -= step
            numeric = (
                kl_divergence(box_to_gaussian(Box3D(*hi), 1.0), target).total
                - kl_divergence(box_to_gaussian(Box3D(*lo), 1.0), target).total
            ) / (2.0 * step)
            rel = abs(analytic[k] - numeric) / max(1.0, abs(analytic[k]))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst <= tol and elapsed < budget_s
    _report(
        "gradient-check",
        ok,
        f"max rel err {worst:.3g} (tol {tol:g}) over 1000 pairs in {elapsed:.1f} s",
    )


def test_09_cli_determinism(tmp_path):
    """Encoding and loss commands produce bit-identical files and stdout
    across three repeated runs."""
    from rgkit.boxloss import write_boxes

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "rgkit.cli", *argv],
            capture_output=True, text=True, check=True,
        )
        return proc.stdout

    cloud_path = tmp_path / "scene.rgpc"
    run(["generate", "--out", str(cloud_path), "--n", "250", "--seed", "42",
         "--binary"])

    maps = []
    logs = []
    shrink = ["--set", "c=32", "--set", "h=128", "--set", "w=128"]
    for i in range(3):
        out = tmp_path / f"m{i}.rgfm"
        logs.append(run(["encode", "--cloud", str(cloud_path), "--out", str(out),
                         *shrink]))
        maps.append(out.read_bytes())
    # stdout contains the per-run output path; compare the invariant lines
    stats = ["\n".join(line for line in log.splitlines() if "nonzero" in line)
             for log in logs]
    maps_ok = maps[0] == maps[1] == maps[2]
    stats_ok = stats[0] == stats[1] == stats[2]

    gen = SplitMix64(stream_seed(900, "accept-cli"))
    boxes = [_random_box(gen, span=2.0) for _ in range(6)]
    targets = [_random_box(gen, span=2.0) for _ in range(6)]
    write_boxes(boxes, tmp_path / "pred.csv", classes=["car"] * 6)
    write_boxes(targets, tmp_path / "gt.csv", classes=["car"] * 6)
    bgl_logs = {
        run(["bgl", "--pred", str(tmp_path / "pred.csv"), "--gt",
             str(tmp_path / "gt.csv")])
        for _ in range(3)
    }
    bgl_ok = len(bgl_logs) == 1
    ok = maps_ok and stats_ok and bgl_ok
    _report(
        "cli-determinism",
        ok,
        f"feature maps identical: {maps_ok}, encode stats identical: {stats_ok}, "
        f"loss reports identical: {bgl_ok}",
    )


def test_10_selftest_under_budget(capsys):
    """The end-to-end check battery passes in under 60 seconds."""
    budget_s = 60.0
    started = time.perf_counter()
    passed = run_selftest(emit=lambda line: None)
    elapsed = time.perf_counter() - started
    ok = passed and elapsed < budget_s
    _report(
        "selftest-budget",
        ok,
        f"{'passed' if passed else 'FAILED'} in {elapsed:.1f} s (budget {budget_s:.0f} s)",
    )
