"""Independent computations that the program's outputs are checked against.

Nothing here calls into ``rgkit``: each expected value is recomputed in
float64 from the documented formulas, reading only the weights and the
primitives the program hands back.  Every ``check_*`` function returns a
list of failure messages; an empty list means the check passed.

Tolerances (see README.md for the derivations):

* composite pixels: the first-order float32 rounding bound of the
  program's accumulation, ``sum_k |term_k| * (e_k + 4u) + K u S`` with
  ``u = 2**-24``, ``e_k`` the bound on the transmittance's relative error
  (``u * sum_{i<k} (alpha_i / (1 - alpha_i) + 2)``), ``K`` the splats
  blended and ``S = sum |f| alpha T``.  A pixel whose ``alpha_min`` or
  ``t_min`` test falls within rounding of its threshold may legitimately
  take the other branch; from that splat on, its tolerance grows by twice
  the remaining transmittance times the largest feature magnitude.
* aggregation rows and box divergences: ``1e-9 * max(1, |expected|)``.
* gradients against central differences: ``1e-6 * max(1, |expected|)``.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

U32 = 2.0**-24
ROW_TOL = 1e-9
KL_TOL = 1e-9
GRAD_TOL = 1e-6
FD_STEP = 1e-5
#: Relative distance to a threshold inside which either branch is allowed.
THRESHOLD_SLACK = 1e-9

RGFM_HEADER = struct.Struct("<4sIIII4d")


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


# ---------------------------------------------------------------------------
# Projection and compositing


@dataclass(frozen=True)
class Splats:
    """Screen-space Gaussians in blend order."""

    mean2d: np.ndarray  # (N, 2) pixels
    cov2d: np.ndarray  # (N, 2, 2)
    inv: np.ndarray  # (N, 2, 2)
    opacity: np.ndarray  # (N,)
    feats: np.ndarray  # (N, C)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """(N, 4) scalar-first quaternions -> (N, 3, 3) rotations."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    rot = np.empty((len(q), 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def project(prims, bev, settings) -> Splats:
    """Project primitives (objects with ``mean``, ``scales``, ``quat``,
    ``opacity``, ``features``) onto the BEV pixel plane and sort them:
    Sigma = R S S^T R^T, cov2d = M Sigma M^T + lambda I, blend order with
    the source index as tie-break."""
    means = np.array([g.mean for g in prims], dtype=np.float64).reshape(-1, 3)
    scales = np.array([g.scales for g in prims], dtype=np.float64).reshape(-1, 3)
    quats = np.array([g.quat for g in prims], dtype=np.float64).reshape(-1, 4)
    opacity = np.array([g.opacity for g in prims], dtype=np.float64)
    feats = np.array([g.features for g in prims], dtype=np.float64)
    sx = bev.w / (bev.x_max - bev.x_min)
    sy = bev.h / (bev.y_max - bev.y_min)
    rs = quat_to_rot(quats) * scales[:, None, :]
    sigma = rs @ rs.transpose(0, 2, 1)
    m = np.array([[sx, 0.0, 0.0], [0.0, sy, 0.0]])
    cov2d = m @ sigma @ m.T + settings.lambda_blur * np.eye(2)
    mean2d = np.stack([(means[:, 0] - bev.x_min) * sx, (means[:, 1] - bev.y_min) * sy], axis=1)
    index = np.arange(len(prims))
    if settings.blend_order == "z-asc":
        order = np.lexsort((index, means[:, 2]))
    elif settings.blend_order == "z-desc":
        order = np.lexsort((index, -means[:, 2]))
    else:
        order = index
    return Splats(
        mean2d[order], cov2d[order], np.linalg.inv(cov2d[order]), opacity[order], feats[order]
    )


def composite_pixel(splats: Splats, row: int, col: int, settings):
    """Float64 front-to-back composite of one pixel over every splat.

    Returns ``(value (C,), tolerance (C,))``; see README.md for the bound."""
    dx = col + 0.5 - splats.mean2d[:, 0]
    dy = row + 0.5 - splats.mean2d[:, 1]
    inv = splats.inv
    q = inv[:, 0, 0] * dx * dx + (inv[:, 0, 1] + inv[:, 1, 0]) * dx * dy + inv[:, 1, 1] * dy * dy
    alpha = np.minimum(splats.opacity * np.exp(-0.5 * q), settings.alpha_max)
    candidates = np.nonzero(alpha >= settings.alpha_min * (1.0 - THRESHOLD_SLACK))[0]
    channels = splats.feats.shape[1]
    acc = np.zeros(channels)
    mass = np.zeros(channels)  # sum of |term|
    term_err = np.zeros(channels)  # sum of |term| * its relative error bound
    extra = np.zeros(channels)
    transmit = 1.0
    t_err = 0.0  # relative error bound of the float32 transmittance
    blended = 0
    for j in candidates:
        a = alpha[j]
        if abs(a - settings.alpha_min) <= THRESHOLD_SLACK * settings.alpha_min:
            extra = 2.0 * transmit * np.abs(splats.feats[j:]).max(axis=0)
            break
        test = transmit * (1.0 - a)
        # float32: alpha rounded (u), 1 - alpha then amplifies it by
        # a / (1 - a), the subtraction and the product round once more each.
        test_err = t_err + (a / (1.0 - a) + 2.0) * U32
        if settings.t_min > 0:
            if abs(test - settings.t_min) <= 2.0 * test_err * max(test, settings.t_min):
                extra = 2.0 * transmit * np.abs(splats.feats[j:]).max(axis=0)
                break
            if test < settings.t_min:
                break
        contrib = np.abs(splats.feats[j] * (a * transmit))
        acc += splats.feats[j] * (a * transmit)
        mass += contrib
        # alpha, feature and two products rounded on top of T's error
        term_err += contrib * (t_err + 4.0 * U32)
        transmit, t_err = test, test_err
        blended += 1
    # each float32 addition rounds once, relative to at most the mass so far
    tol = 1.01 * (term_err + blended * U32 * mass) + 1e-12 * mass + extra
    return acc, tol


def coverage_counts(splats: Splats, bev, settings) -> np.ndarray:
    """Splats per tile (n_tiles_y, n_tiles_x) under the documented lossless
    coverage radius ``sqrt(lambda_max) * max(3, sqrt(2 ln(o / alpha_min)))``."""
    ts = settings.tile_size
    ntx = (bev.w + ts - 1) // ts
    nty = (bev.h + ts - 1) // ts
    a = splats.cov2d[:, 0, 0]
    b = splats.cov2d[:, 0, 1]
    c = splats.cov2d[:, 1, 1]
    mid = 0.5 * (a + c)
    lam = mid + np.sqrt(np.maximum(mid * mid - (a * c - b * b), 0.0))
    o = splats.opacity
    k = np.where(
        o > settings.alpha_min,
        np.maximum(3.0, np.sqrt(2.0 * np.log(np.maximum(o, settings.alpha_min) / settings.alpha_min))),
        3.0,
    )
    radius = k * np.sqrt(lam)
    keep = o >= settings.alpha_min
    mx, my, radius = splats.mean2d[keep, 0], splats.mean2d[keep, 1], radius[keep]
    tx0 = np.clip(np.floor((mx - radius) / ts), 0, ntx).astype(np.int64)
    tx1 = np.clip(np.floor((mx + radius) / ts), -1, ntx - 1).astype(np.int64)
    ty0 = np.clip(np.floor((my - radius) / ts), 0, nty).astype(np.int64)
    ty1 = np.clip(np.floor((my + radius) / ts), -1, nty - 1).astype(np.int64)
    ok = (tx0 <= tx1) & (ty0 <= ty1)
    diff = np.zeros((nty + 1, ntx + 1), dtype=np.int64)
    np.add.at(diff, (ty0[ok], tx0[ok]), 1)
    np.add.at(diff, (ty0[ok], tx1[ok] + 1), -1)
    np.add.at(diff, (ty1[ok] + 1, tx0[ok]), -1)
    np.add.at(diff, (ty1[ok] + 1, tx1[ok] + 1), 1)
    return diff.cumsum(axis=0).cumsum(axis=1)[:nty, :ntx]


def sample_pixels(data: np.ndarray, splats: Splats, bev, settings, rng, n_nonzero=48, n_any=16):
    """Every pixel of the densest tile, plus pixels drawn from the nonzero
    ones and from the whole map."""
    ts = settings.tile_size
    counts = coverage_counts(splats, bev, settings)
    ty, tx = np.unravel_index(int(np.argmax(counts)), counts.shape)
    pixels = {
        (r, c)
        for r in range(ty * ts, min((ty + 1) * ts, bev.h))
        for c in range(tx * ts, min((tx + 1) * ts, bev.w))
    }
    nz_rows, nz_cols = np.nonzero(np.any(data != 0, axis=0))
    if len(nz_rows):
        pick = rng.choice(len(nz_rows), size=min(n_nonzero, len(nz_rows)), replace=False)
        pixels.update(zip(nz_rows[pick].tolist(), nz_cols[pick].tolist()))
    pixels.update(zip(rng.integers(0, bev.h, n_any).tolist(), rng.integers(0, bev.w, n_any).tolist()))
    return sorted(pixels)


def check_pixels(data: np.ndarray, splats: Splats, settings, pixels) -> list:
    fails = []
    for row, col in pixels:
        want, tol = composite_pixel(splats, row, col, settings)
        err = np.abs(data[:, row, col].astype(np.float64) - want)
        if not np.all(err <= tol):
            k = int(np.argmax(err - tol))
            fails.append(
                f"pixel ({row},{col}) channel {k}: map {data[k, row, col]!r}, "
                f"composite {want[k]!r}, tolerance {tol[k]:.3g}"
            )
    return fails


def distinct_hit_pixels(positions: np.ndarray, bev) -> int:
    """Distinct pixels that in-range points fall on (boundary inside)."""
    x, y = positions[:, 0], positions[:, 1]
    inside = (x >= bev.x_min) & (x <= bev.x_max) & (y >= bev.y_min) & (y <= bev.y_max)
    col = np.clip(np.floor((x[inside] - bev.x_min) * bev.w / (bev.x_max - bev.x_min)), 0, bev.w - 1)
    row = np.clip(np.floor((y[inside] - bev.y_min) * bev.h / (bev.y_max - bev.y_min)), 0, bev.h - 1)
    return len(np.unique(row.astype(np.int64) * bev.w + col.astype(np.int64)))


# ---------------------------------------------------------------------------
# Aggregation


def _affine(layer, x):
    out = x @ layer.weight.T
    return out if layer.bias is None else out + layer.bias


def lfa_rows(positions, features, layer, r, rows) -> dict:
    """Row ``i`` of local aggregation: the layer applied to the mean of
    ``concat(f_j, p_i - p_j)`` over ``|p_j - p_i| < r``.  Rows with a
    neighbour within rounding of ``r`` are left out."""
    out = {}
    r2 = r * r
    for i in rows:
        d = positions - positions[i]
        d2 = np.einsum("ij,ij->i", d, d)
        if np.any(np.abs(d2 - r2) <= THRESHOLD_SLACK * r2):
            continue
        near = d2 < r2
        x = np.concatenate([features[near], positions[i] - positions[near]], axis=1)
        out[int(i)] = _affine(layer, x.mean(axis=0))
    return out


def _layer_norm(ln, x):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return ln.gamma * (x - mu) / np.sqrt(var + ln.eps) + ln.beta


_erf = np.frompyfunc(math.erf, 1, 1)


def gfa_rows(features, block, rows) -> dict:
    """Rows of the pre-norm self-attention block, from its weights."""
    rows = np.asarray(rows)
    f1 = _affine(block.input_proj, features)
    qkv = _affine(block.qkv, _layer_norm(block.ln1, f1))
    dim = f1.shape[1]
    q, k, v = qkv[:, :dim], qkv[:, dim : 2 * dim], qkv[:, 2 * dim :]
    d_head = dim // block.n_heads
    heads = np.empty((len(rows), dim))
    for h in range(block.n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        scores = q[rows, sl] @ k[:, sl].T / math.sqrt(d_head)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads[:, sl] = (w / w.sum(axis=1, keepdims=True)) @ v[:, sl]
    f2 = _affine(block.out_proj, heads) + f1[rows]
    hidden = _affine(block.ffn1, _layer_norm(block.ln2, f2))
    hidden = 0.5 * hidden * (1.0 + _erf(hidden / math.sqrt(2.0)).astype(np.float64))
    out = _affine(block.ffn2, hidden) + f2
    return {int(i): out[j] for j, i in enumerate(rows)}


def check_rows(name, program: np.ndarray, expected: dict) -> list:
    fails = []
    for i, want in expected.items():
        err = np.abs(program[i] - want)
        tol = ROW_TOL * np.maximum(1.0, np.abs(want))
        if not np.all(err <= tol):
            fails.append(f"{name} row {i}: max |diff| {err.max():.3g}")
    return fails


def neighbor_pair_bounds(positions, r) -> tuple:
    """Bounds on the ordered pair count with ``|p_i - p_j| < r`` (self pairs
    included) from a k-d tree; pairs within rounding of ``r`` may go
    either way."""
    from scipy.spatial import cKDTree

    tree = cKDTree(positions)
    n = len(positions)
    inner = len(tree.query_pairs(r * (1.0 - THRESHOLD_SLACK), output_type="ndarray"))
    outer = len(tree.query_pairs(r * (1.0 + THRESHOLD_SLACK), output_type="ndarray"))
    return n + 2 * inner, n + 2 * outer


# ---------------------------------------------------------------------------
# Files


def load_rgfm(path):
    """``(header fields, float32 map)`` of an RGFM file, parsed here."""
    with open(path, "rb") as fh:
        magic, version, c, h, w, *ext = RGFM_HEADER.unpack(fh.read(RGFM_HEADER.size))
        data = np.fromfile(fh, dtype="<f4", count=c * h * w)
        if magic != b"RGFM" or version != 1 or data.size != c * h * w or fh.read(1):
            raise ValueError(f"{path}: not a well-formed RGFM file")
    return (c, h, w, *ext), data.reshape(c, h, w)


def rgfm_matches(path, data: np.ndarray, bev) -> bool:
    """True if the RGFM file holds exactly this map: header fields, then
    the float32 payload byte for byte (streamed, so no second copy)."""
    with open(path, "rb") as fh:
        head = fh.read(RGFM_HEADER.size)
        if len(head) != RGFM_HEADER.size:
            return False
        magic, version, c, h, w, *ext = RGFM_HEADER.unpack(head)
        if (magic, version, (c, h, w)) != (b"RGFM", 1, data.shape):
            return False
        if ext != [bev.x_min, bev.x_max, bev.y_min, bev.y_max]:
            return False
        sha = hashlib.sha256()
        size = 0
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
            size += len(chunk)
    want = np.ascontiguousarray(data, dtype="<f4")
    return size == want.nbytes and sha.hexdigest() == digest(want)


# ---------------------------------------------------------------------------
# Box Gaussian Loss


def box_covariances(boxes: np.ndarray, a: np.ndarray) -> np.ndarray:
    """R diag((l/2a)^2, (w/2a)^2, (h/2a)^2) R^T for (B, 7) boxes."""
    s = boxes[:, 3:6] / (2.0 * a)[:, None]
    c, sn = np.cos(boxes[:, 6]), np.sin(boxes[:, 6])
    rot = np.zeros((len(boxes), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1] = c, -sn
    rot[:, 1, 0], rot[:, 1, 1] = sn, c
    rot[:, 2, 2] = 1.0
    return (rot * (s * s)[:, None, :]) @ rot.transpose(0, 2, 1)


def kl_reference(pred: np.ndarray, gt: np.ndarray, a: np.ndarray) -> np.ndarray:
    """KL(N(pred) || N(gt)) per pair, with ``np.linalg.inv`` and ``slogdet``."""
    s_hat = box_covariances(pred, a)
    s = box_covariances(gt, a)
    inv = np.linalg.inv(s)
    d = pred[:, :3] - gt[:, :3]
    maha = np.einsum("bi,bij,bj->b", d, inv, d)
    trace = np.einsum("bij,bji->b", inv, s_hat)
    _, logdet = np.linalg.slogdet(s)
    _, logdet_hat = np.linalg.slogdet(s_hat)
    return 0.5 * (maha + trace + logdet - logdet_hat - 3.0)


def fd_gradient(pred_row, gt_row, a: float, step: float = FD_STEP) -> np.ndarray:
    """Central differences of :func:`kl_reference` in the seven predicted
    box parameters."""
    probe = np.repeat(np.asarray(pred_row, dtype=np.float64)[None, :], 14, axis=0)
    for k in range(7):
        probe[2 * k, k] += step
        probe[2 * k + 1, k] -= step
    kl = kl_reference(probe, np.repeat(np.asarray(gt_row)[None, :], 14, axis=0), np.full(14, a))
    return (kl[0::2] - kl[1::2]) / (2.0 * step)


def check_kls(program_kls, expected) -> list:
    program_kls = np.asarray(program_kls, dtype=np.float64)
    fails = []
    bad = np.abs(program_kls - expected) > KL_TOL * np.maximum(1.0, np.abs(expected))
    for i in np.nonzero(bad)[0][:5]:
        fails.append(f"KL pair {i}: program {program_kls[i]!r}, expected {expected[i]!r}")
    for i in np.nonzero(~(program_kls >= 0.0))[0][:5]:
        fails.append(f"KL pair {i} is negative: {program_kls[i]!r}")
    return fails


def check_mean(program_mean: float, expected) -> list:
    want = float(np.mean(expected))
    if abs(program_mean - want) > KL_TOL * max(1.0, abs(want)):
        return [f"bgl mean {program_mean!r}, expected {want!r}"]
    return []


def check_gradients(program_grads, pred, gt, a, sample) -> list:
    fails = []
    for i in sample:
        want = fd_gradient(pred[i], gt[i], a[i])
        got = np.asarray(program_grads[i], dtype=np.float64)
        err = np.abs(got - want)
        if not np.all(err <= GRAD_TOL * np.maximum(1.0, np.abs(want))):
            k = int(np.argmax(err))
            fails.append(f"gradient pair {i} component {k}: {got[k]!r} vs {want[k]!r}")
    return fails
