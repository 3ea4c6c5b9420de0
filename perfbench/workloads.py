"""Workload definitions and their seeded inputs.

The inputs are made here with NumPy's PCG64 generator, not with the
program's own scene generator, so a change to the program never changes
what the benchmark feeds it.  Every frame has a fixed point count and
every cluster a fixed share of it, and cluster centres keep three sigma
away from the range edges; that keeps the cost of one frame close to the
cost of the next across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Seed of the encoder weights.  Weights are set-up, not input: they stay
#: fixed so that a seed changes only the scenes.
WEIGHT_SEED = 0

C_RAW = 4


@dataclass(frozen=True)
class EncoderWorkload:
    preset: str
    frames: int
    clusters: int
    points_per_cluster: int
    sigma: float  # cluster standard deviation, metres


@dataclass(frozen=True)
class BoxWorkload:
    batches: int
    class_counts: tuple  # (class name, pairs per batch)


WORKLOADS = {
    "vod-sparse": EncoderWorkload(
        preset="vod", frames=8, clusters=8, points_per_cluster=64, sigma=1.0
    ),
    "tj4d-dense": EncoderWorkload(
        preset="tj4d", frames=4, clusters=5, points_per_cluster=500, sigma=0.5
    ),
    "boxes": BoxWorkload(
        batches=4,
        class_counts=(("car", 400), ("truck", 100), ("pedestrian", 300), ("cyclist", 200)),
    ),
}

#: Mean box dimensions (l, w, h) per class, metres.
CLASS_DIMS = {
    "car": (4.5, 1.9, 1.6),
    "truck": (10.0, 2.5, 3.2),
    "pedestrian": (0.6, 0.6, 1.7),
    "cyclist": (1.8, 0.6, 1.6),
}

_STREAM = {"vod-sparse": 1, "tj4d-dense": 2, "boxes": 3}


def rng_for(workload: str, seed: int, purpose: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload], purpose])


def make_frames(spec: EncoderWorkload, lo, hi, rng: np.random.Generator) -> list:
    """``spec.frames`` clouds as ``(positions (N,3), features (N,C_RAW))``.

    ``lo``/``hi`` are the (x, y, z) range corners of the preset."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    margin = 3.0 * spec.sigma
    n = spec.clusters * spec.points_per_cluster
    frames = []
    for _ in range(spec.frames):
        centres = (lo + margin) + rng.random((spec.clusters, 3)) * (hi - lo - 2 * margin)
        pick = np.repeat(np.arange(spec.clusters), spec.points_per_cluster)
        pos = np.clip(centres[pick] + spec.sigma * rng.standard_normal((n, 3)), lo, hi)
        feats = rng.uniform(-1.0, 1.0, (n, C_RAW))
        frames.append((pos, feats))
    return frames


def write_cloud_csv(path, positions, features) -> None:
    """Cloud CSV as ``rgk generate`` writes it: a ``# c_raw=<k>`` line,
    then ``x,y,z,f...`` rows with 17 significant digits (lossless)."""
    rows = np.hstack([positions, features])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# c_raw={features.shape[1]}\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def make_box_batches(spec: BoxWorkload, rng: np.random.Generator) -> list:
    """``spec.batches`` batches as ``(pred (B,7), gt (B,7), classes)``.

    Ground truth is spread over a 70 m x 80 m field; predictions perturb
    the centre by 10% of the size, the dimensions by about 10% and the yaw
    by about 0.15 rad, so every pair has a strictly positive divergence."""
    names = [name for name, count in spec.class_counts for _ in range(count)]
    mean_dims = np.array([CLASS_DIMS[name] for name in names])
    b = len(names)
    batches = []
    for _ in range(spec.batches):
        order = rng.permutation(b)
        classes = [names[k] for k in order]
        dims = mean_dims[order] * np.clip(1.0 + 0.1 * rng.standard_normal((b, 3)), 0.7, 1.3)
        gt = np.empty((b, 7))
        gt[:, 0] = rng.uniform(0.0, 70.0, b)
        gt[:, 1] = rng.uniform(-40.0, 40.0, b)
        gt[:, 2] = rng.uniform(-1.0, 1.0, b)
        gt[:, 3:6] = dims
        gt[:, 6] = rng.uniform(-np.pi, np.pi, b)
        pred = gt.copy()
        pred[:, 0:3] += 0.1 * dims * rng.standard_normal((b, 3))
        pred[:, 3:6] *= np.exp(0.1 * rng.standard_normal((b, 3)))
        pred[:, 6] += 0.15 * rng.standard_normal(b)
        batches.append((pred, gt, classes))
    return batches
