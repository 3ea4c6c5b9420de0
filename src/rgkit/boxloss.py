"""Box Gaussian Loss: boxes as Gaussian distributions compared by KL
divergence, with exact per-term bookkeeping and analytic gradients.

A box ``[x, y, z, l, w, h, theta]`` maps to the Gaussian with mean at the
box center and covariance ``R diag((l/2a)^2, (w/2a)^2, (h/2a)^2) R^T``,
``R`` the yaw rotation and ``a > 0`` a per-class sharpness (dimensions
are first clamped to ``SIZE_FLOOR``).  ``a`` scales all axes equally, so
only the Mahalanobis term depends on it.  The divergence of prediction
``N(mu_hat, S_hat)`` from target ``N(mu, S)`` is the KLD closed form
(Yang et al., 2021)

    KL = 1/2 * [ (mu_hat - mu)^T S^-1 (mu_hat - mu) + Tr(S^-1 S_hat)
                 + log |S| - log |S_hat| - 3 ]

``bgl`` and ``bgl_gradient`` share one kernel that evaluates it without
any 3x3 matrix, in the target's yaw frame: with target variances ``d_i``,
predicted ones ``e_i``, the centre offset ``(u, v, dz)`` rotated by
``-theta`` and ``c, s = cos, sin(theta_hat - theta)``,

    mahalanobis = u^2/d_0 + v^2/d_1 + dz^2/d_2,   d/d(x,y,z) = R (u/d_0, v/d_1, dz/d_2)
    trace  = (c^2 e_0 + s^2 e_1)/d_0 + (s^2 e_0 + c^2 e_1)/d_1 + e_2/d_2
    logdet = log(d_0 d_1 d_2) - log(e_0 e_1 e_2)
    d/dl   = ((c^2/d_0 + s^2/d_1) e_0 - 1) / l  (likewise w, h),
    d/dtheta_hat = c s (e_1 - e_0)(1/d_0 - 1/d_1)

The trace is summed from the ratios ``e_i/d_j``, so identical boxes give
exactly zero divergence and gradient; ``rgk bgl`` prints the kernel's terms.
``box_to_gaussian``, ``kl_divergence`` (trace as ``3 + Tr(S^-1 (S_hat - S))``)
and ``fd_gradient`` are the dense oracle, kept on purpose for the runtime
gradient check and for pinning the kernel in the tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# the settings live in config; both names stay importable from here
from .config import DEFAULT_A_PER_CLASS, BglConfig, _one_field
from .errors import (
    EmptyBatch,
    FormatError,
    InvalidSpec,
    LengthMismatch,
    SingularCovariance,
    SingularMatrix,
)
from .geom import DET_EPS, covariance_from_scale_rot, mat3_det, mat3_inverse, rotmat_z

Array = np.ndarray

#: Dimensions below this (meters) are degenerate and clamped up to it before conversion.
SIZE_FLOOR = 1e-3

_COLUMNS = ("x", "y", "z", "l", "w", "h", "theta")
_params = operator.attrgetter(*_COLUMNS)


@dataclass(frozen=True, slots=True)
class Box3D:
    """Axis-yawed 3D box: center (m), dimensions (m), yaw about z (rad).

    Slotted: a batch holds thousands of boxes, and a box needs no ``__dict__``."""

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


def _clamped(b: Box3D) -> tuple:
    params = _params(b)
    if b.l >= SIZE_FLOOR and b.w >= SIZE_FLOOR and b.h >= SIZE_FLOOR:
        return params
    return (*params[:3], *(max(d, SIZE_FLOOR) for d in params[3:6]), b.theta)


def box_to_gaussian(b: Box3D, a: float) -> GaussianDistribution3D:
    """Convert a box to its Gaussian form for sharpness ``a``; dimensions
    below :data:`SIZE_FLOOR` are clamped up to it."""
    if not (math.isfinite(a) and a > 0):
        raise InvalidSpec(f"scaling hyperparameter a must be > 0, got {a}")
    l, w, h = _clamped(b)[3:6]
    half = 2.0 * a
    scales = np.array([l / half, w / half, h / half])
    try:
        with np.errstate(over="raise"):
            sigma = covariance_from_scale_rot(scales, rotmat_z(b.theta))
        det = (l * w * h / half**3) ** 2
        if det == math.inf:  # l * w * h overflowed without raising
            raise OverflowError
    except (OverflowError, FloatingPointError):
        raise InvalidSpec(f"Gaussian of box {b} with a={a} overflows float64") from None
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


def _kl_and_gradient(pred, gt, a, xp, every) -> tuple:
    """``(mahalanobis, trace, logdet, divergence), gradient`` of clamped
    ``(x, y, z, l, w, h, theta)`` in the yaw frame: floats of one pair with
    ``xp=math, every=bool``, or rows of a batch with ``xp=np, every=np.all``."""
    x, y, z, l, w, h, theta = pred
    gx, gy, gz, gl, gw, gh, gtheta = gt
    if not every((a > 0.0) & (a < math.inf)):
        raise InvalidSpec("scaling hyperparameter a must be finite and > 0")
    half = 2.0 * a
    # axis variances, d of the target and e of the prediction
    s0, s1, s2 = gl / half, gw / half, gh / half
    d0, d1, d2 = s0 * s0, s1 * s1, s2 * s2
    s0, s1, s2 = l / half, w / half, h / half
    e0, e1, e2 = s0 * s0, s1 * s1, s2 * s2
    det, det_hat, phi = d0 * d1 * d2, e0 * e1 * e2, theta - gtheta
    if not every((det < math.inf) & (det_hat < math.inf) & (abs(phi) < math.inf)):
        raise InvalidSpec("box axis variances (dim/2a)^2 or yaw difference overflow float64")
    if not every(det > DET_EPS):
        raise SingularCovariance(f"target covariance determinant must exceed {DET_EPS}")
    if not every(det_hat > 0.0):
        raise SingularCovariance("predicted covariance determinant must be > 0")
    cg, sg = xp.cos(gtheta), xp.sin(gtheta)
    dx, dy, dz = x - gx, y - gy, z - gz
    u, v = cg * dx + sg * dy, cg * dy - sg * dx
    pu, pv, pz = u / d0, v / d1, dz / d2
    c, s = xp.cos(phi), xp.sin(phi)
    c2, s2 = c * c, s * s
    # (R_phi^T S^-1 R_phi)_ii e_i, from the ratios e_i/d_j: exactly 1 on identical boxes
    t0, t1, t2 = c2 * (e0 / d0) + s2 * (e0 / d1), s2 * (e1 / d0) + c2 * (e1 / d1), e2 / d2
    mahalanobis, trace = u * pu + v * pv + dz * pz, t0 + t1 + t2
    logdet = xp.log(det) - xp.log(det_hat)
    kl = 0.5 * (mahalanobis + trace + logdet - 3.0)
    grad = (
        cg * pu - sg * pv, sg * pu + cg * pv, pz,
        (t0 - 1.0) / l, (t1 - 1.0) / w, (t2 - 1.0) / h,
        c * s * (e1 - e0) * (1.0 / d0 - 1.0 / d1),
    )
    return (mahalanobis, trace, logdet, kl), grad


def _columns(boxes: Sequence[Box3D]) -> Array:
    """(7, B) parameter rows of a box list, dimensions clamped as by :func:`_clamped`."""
    cols = np.array(list(map(_params, boxes)), dtype=np.float64).T
    np.maximum(cols[3:6], SIZE_FLOOR, out=cols[3:6])
    return cols


def _pair_terms(pred, gt, classes, cfg: BglConfig) -> tuple:
    """``mean, a, terms, grad`` of index-aligned box pairs from one kernel call:
    the mean divergence summed in index order, each pair's ``a`` and the
    kernel's rows (the gradient's may be non-finite)."""
    if len(pred) != len(gt):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(gt)} ground truths")
    if classes is not None and len(classes) != len(gt):
        raise LengthMismatch(f"{len(classes)} classes vs {len(gt)} ground truths")
    if not gt:
        raise EmptyBatch("need at least one box pair")
    names = classes if classes is not None else [None] * len(gt)
    a = np.array([cfg.a_for(c) for c in names], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        terms, grad = _kl_and_gradient(_columns(pred), _columns(gt), a, np, np.all)
        total = float(np.cumsum(terms[3])[-1])
    if not math.isfinite(total):
        raise InvalidSpec("box-pair divergence overflows float64")
    return total / len(gt), a, terms, grad


def _finite_gradient(grad: Sequence[float]) -> Array:
    if not all(map(math.isfinite, grad)):
        raise InvalidSpec("box-pair divergence gradient overflows float64")
    return np.array(grad)


def bgl(
    pred: Sequence[Box3D],
    gt: Sequence[Box3D],
    classes: Optional[Sequence[str]],
    cfg: BglConfig,
) -> float:
    """Mean KL divergence over index-aligned box pairs (matching between
    predictions and ground truth happens upstream), summed in index order."""
    return _pair_terms(pred, gt, classes, cfg)[0]


def bgl_gradient(pred: Box3D, gt: Box3D, a: float) -> Array:
    """Analytic gradient of the pair divergence with respect to the seven
    predicted box parameters ``(x, y, z, l, w, h, theta)``."""
    return _finite_gradient(_kl_and_gradient(_clamped(pred), _clamped(gt), a, math, bool)[1])


#: Largest tolerated relative error of the analytic gradient against :func:`fd_gradient`.
GRAD_CHECK_TOL = 1e-4


def fd_gradient(pred: Box3D, gt: Box3D, a: float, step: float = 1e-5) -> Array:
    """Central-difference gradient of the pair divergence, for verifying
    the analytic gradient at runtime (``rgk bgl --grad-check``)."""
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
    """Write boxes as CSV (header ``x,y,z,l,w,h,theta[,class]``); a class that
    :func:`read_boxes` would not read back raises InvalidSpec first."""
    if classes is not None and len(classes) != len(boxes):
        raise LengthMismatch(f"{len(classes)} classes vs {len(boxes)} boxes")
    for cls in classes if classes is not None else ():
        if not _one_field(str(cls), ","):
            raise InvalidSpec(f"class {cls!r}: a class must be one line of UTF-8 text "
                              "without ',' or surrounding blanks")
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"box file is not UTF-8 text: {exc}") from None
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
