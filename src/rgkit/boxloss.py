"""Box Gaussian Loss: boxes as Gaussian distributions compared by KL
divergence, with exact per-term bookkeeping and analytic gradients.

A box ``[x, y, z, l, w, h, theta]`` maps to the Gaussian with mean at the
box center and covariance ``R diag((l/2a)^2, (w/2a)^2, (h/2a)^2) R^T``
where ``R`` is the yaw rotation about z and ``a > 0`` is a per-class
sharpness hyperparameter.  Because ``a`` scales all three axes equally,
only the Mahalanobis term of the divergence depends on it —
``mahalanobis(a) = a^2 * mahalanobis(1)`` — while the trace and
log-determinant terms are invariant.

The divergence of prediction ``g_hat = N(mu_hat, S_hat)`` from target
``g = N(mu, S)`` is the closed form

    KL = 1/2 * [ (mu_hat - mu)^T S^-1 (mu_hat - mu)      (mahalanobis)
                 + Tr(S^-1 S_hat)                        (trace)
                 + log |S| - log |S_hat|                 (logdet)
                 - 3 ]

evaluated with explicit 3x3 inverses and determinants.  The trace term
is computed as ``3 + Tr(S^-1 (S_hat - S))`` — algebraically identical,
but exactly 3 when both covariances are the same array, which makes the
divergence of a distribution against itself return exactly zero.

``bgl_gradient`` differentiates the composition of conversion and
divergence with respect to the seven predicted box parameters in closed
form; the test suite pins it against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateBox,
    EmptyBatch,
    FormatError,
    InvalidSpec,
    LengthMismatch,
    SingularCovariance,
    SingularMatrix,
)
from .geom import covariance_from_scale_rot, mat3_det, mat3_inverse, rotmat_z

Array = np.ndarray

#: Dimensions below this (meters) are degenerate; they are clamped up to it
#: (or rejected in strict mode) before conversion.
SIZE_FLOOR = 1e-3

#: Per-class sharpness defaults: small, deformable classes keep the full
#: box extent (a=1); large rigid classes concentrate mass (a=3).
DEFAULT_A_PER_CLASS = {"pedestrian": 1.0, "cyclist": 1.0, "car": 3.0, "truck": 3.0}

_COLUMNS = ("x", "y", "z", "l", "w", "h", "theta")


@dataclass(frozen=True)
class Box3D:
    """Axis-yawed 3D box: center (m), dimensions (m), yaw about z (rad)."""

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        vals = (self.x, self.y, self.z, self.l, self.w, self.h, self.theta)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidSpec(f"box parameters must be finite, got {vals}")

    def as_array(self) -> Array:
        return np.array([self.x, self.y, self.z, self.l, self.w, self.h, self.theta])


@dataclass(frozen=True, eq=False)
class GaussianDistribution3D:
    """Mean plus full symmetric positive-definite 3x3 covariance.

    ``det`` optionally caches the covariance determinant when it is known
    analytically (set by :func:`box_to_gaussian`).
    """

    mu: Array
    sigma: Array
    det: Optional[float] = None


@dataclass(frozen=True)
class KlComponents:
    """KL divergence split into its raw terms plus the total."""

    mahalanobis: float
    trace: float
    logdet: float
    total: float


@dataclass(frozen=True)
class BglConfig:
    """Loss configuration: the sharpness ``a`` per class and the fallback
    ``a`` for unlisted or unlabelled boxes."""

    a_per_class: dict
    a_default: float = 1.0

    def __post_init__(self) -> None:
        bad = {k: v for k, v in self.a_per_class.items() if not v > 0}
        if bad or not self.a_default > 0:
            raise InvalidSpec(f"every a must be > 0, got {bad or self.a_default}")

    def a_for(self, cls: Optional[str]) -> float:
        if cls is None:
            return self.a_default
        return self.a_per_class.get(cls, self.a_default)


def default_config() -> BglConfig:
    return BglConfig(a_per_class=dict(DEFAULT_A_PER_CLASS))


def _sanitized_dims(b: Box3D, strict: bool) -> tuple:
    dims = (b.l, b.w, b.h)
    if min(dims) >= SIZE_FLOOR:
        return dims
    if strict:
        raise DegenerateBox(f"box dimensions {dims} fall below {SIZE_FLOOR} m")
    return tuple(max(d, SIZE_FLOOR) for d in dims)


def box_to_gaussian(b: Box3D, a: float, strict: bool = False) -> GaussianDistribution3D:
    """Convert a box to its Gaussian form for sharpness ``a``.

    Dimensions below :data:`SIZE_FLOOR` are clamped up to it, or rejected
    when ``strict`` is set.
    """
    if not (math.isfinite(a) and a > 0):
        raise InvalidSpec(f"scaling hyperparameter a must be > 0, got {a}")
    l, w, h = _sanitized_dims(b, strict)
    half = 2.0 * a
    scales = np.array([l / half, w / half, h / half])
    sigma = covariance_from_scale_rot(scales, rotmat_z(b.theta))
    det = (l * w * h / half**3) ** 2
    return GaussianDistribution3D(
        mu=np.array([b.x, b.y, b.z]), sigma=sigma, det=det
    )


def _det_of(g: GaussianDistribution3D) -> float:
    det = g.det if g.det is not None else mat3_det(g.sigma)
    if not det > 0:
        raise SingularCovariance(f"covariance determinant must be > 0, got {det}")
    return det


def kl_divergence(
    g_hat: GaussianDistribution3D, g: GaussianDistribution3D
) -> KlComponents:
    """KL divergence of ``g_hat`` from ``g`` (the target covariance is the
    one that gets inverted), split into raw components."""
    try:
        inv = mat3_inverse(g.sigma)
    except SingularMatrix as exc:
        raise SingularCovariance(str(exc)) from None
    delta = g_hat.mu - g.mu
    mahalanobis = float(delta @ (inv @ delta))
    trace = 3.0 + float(np.sum(inv * (g_hat.sigma - g.sigma)))
    logdet = math.log(_det_of(g)) - math.log(_det_of(g_hat))
    total = 0.5 * (mahalanobis + trace + logdet - 3.0)
    return KlComponents(mahalanobis, trace, logdet, total)


def bgl(
    pred: Sequence[Box3D],
    gt: Sequence[Box3D],
    classes: Optional[Sequence[str]],
    cfg: BglConfig,
) -> float:
    """Mean KL divergence over index-aligned box pairs (matching between
    predictions and ground truth happens upstream)."""
    if len(pred) != len(gt):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(gt)} ground truths")
    if classes is not None and len(classes) != len(gt):
        raise LengthMismatch(f"{len(classes)} classes vs {len(gt)} ground truths")
    if not gt:
        raise EmptyBatch("need at least one box pair")
    total = 0.0
    for i, (p, t) in enumerate(zip(pred, gt)):
        a = cfg.a_for(classes[i] if classes is not None else None)
        total += kl_divergence(box_to_gaussian(p, a), box_to_gaussian(t, a)).total
    return total / len(gt)


def bgl_gradient(pred: Box3D, gt: Box3D, a: float) -> Array:
    """Analytic gradient of the pair divergence with respect to the seven
    predicted box parameters ``(x, y, z, l, w, h, theta)``.

    With target precision ``A = Sigma^-1``, offset ``delta``, prediction
    rotation ``R`` and axis variances ``D = diag((l/2a)^2, ...)``:

    * position: ``A delta`` (Mahalanobis quadratic);
    * dimension ``d_i``: ``1/2 * ((R^T A R)_ii * d_i / (2 a^2) - 2 / d_i)``
      — the trace term pulls toward the target shape, the logdet term
      pushes against collapse;
    * yaw: ``Tr(A R' D R^T)`` (the logdet term is yaw-invariant).
    """
    if not (math.isfinite(a) and a > 0):
        raise InvalidSpec(f"scaling hyperparameter a must be > 0, got {a}")
    g = box_to_gaussian(gt, a)
    try:
        inv = mat3_inverse(g.sigma)
    except SingularMatrix as exc:
        raise SingularCovariance(str(exc)) from None

    l, w, h = _sanitized_dims(pred, strict=False)
    delta = np.array([pred.x - gt.x, pred.y - gt.y, pred.z - gt.z])
    grad_pos = inv @ delta

    rot = rotmat_z(pred.theta)
    basis = rot.T @ inv @ rot
    two_a2 = 2.0 * a * a
    grad_dims = np.array(
        [
            0.5 * (basis[0, 0] * l / two_a2 - 2.0 / l),
            0.5 * (basis[1, 1] * w / two_a2 - 2.0 / w),
            0.5 * (basis[2, 2] * h / two_a2 - 2.0 / h),
        ]
    )

    sin_t = math.sin(pred.theta)
    cos_t = math.cos(pred.theta)
    drot = np.array([[-sin_t, -cos_t, 0.0], [cos_t, -sin_t, 0.0], [0.0, 0.0, 0.0]])
    half = 2.0 * a
    axis_var = np.diag([(l / half) ** 2, (w / half) ** 2, (h / half) ** 2])
    grad_theta = float(np.trace(inv @ drot @ axis_var @ rot.T))

    return np.concatenate([grad_pos, grad_dims, [grad_theta]])


def fd_gradient(pred: Box3D, gt: Box3D, a: float, step: float = 1e-5) -> Array:
    """Central-difference gradient of the pair divergence, for verifying
    :func:`bgl_gradient` at runtime."""
    base = pred.as_array()
    target = box_to_gaussian(gt, a)
    grad = np.empty(7)
    for k in range(7):
        hi, lo = base.copy(), base.copy()
        hi[k] += step
        lo[k] -= step
        f_hi = kl_divergence(box_to_gaussian(Box3D(*hi), a), target).total
        f_lo = kl_divergence(box_to_gaussian(Box3D(*lo), a), target).total
        grad[k] = (f_hi - f_lo) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# Box list I/O


def write_boxes(
    boxes: Sequence[Box3D], path, classes: Optional[Sequence[str]] = None
) -> None:
    """Write boxes as CSV (header ``x,y,z,l,w,h,theta[,class]``)."""
    if classes is not None and len(classes) != len(boxes):
        raise LengthMismatch(f"{len(classes)} classes vs {len(boxes)} boxes")
    header = ",".join(_COLUMNS) + (",class" if classes is not None else "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i, b in enumerate(boxes):
            row = ",".join(format(v, ".17g") for v in b.as_array())
            if classes is not None:
                row += f",{classes[i]}"
            fh.write(row + "\n")


def read_boxes(path) -> tuple:
    """Read a box CSV; returns ``(boxes, classes_or_None)``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError("empty box file (missing header)")
    header = tuple(col.strip() for col in lines[0].split(","))
    if header == _COLUMNS:
        has_class = False
    elif header == _COLUMNS + ("class",):
        has_class = True
    else:
        raise FormatError(f"unexpected box header {lines[0]!r}")
    n_cols = 7 + has_class
    boxes: list[Box3D] = []
    classes: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise FormatError(f"line {lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            vals = [float(p) for p in parts[:7]]
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric box value") from None
        boxes.append(Box3D(*vals))
        if has_class:
            classes.append(parts[7].strip())
    return boxes, (classes if has_class else None)
