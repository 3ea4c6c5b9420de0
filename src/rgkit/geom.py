"""Small dense linear-algebra and geometry primitives.

Conventions used throughout the package:

* Vectors are float64 numpy arrays of shape (3,), matrices (3, 3); no
  wrapper classes.
* Quaternions are shape (4,) float64 arrays in scalar-first order
  (w, x, y, z), right-handed, acting on column vectors.
* All functions are pure and safe to call concurrently.

Inverses and determinants are explicit closed forms (adjugate / Sarrus);
the singularity threshold is |det| <= 1e-12.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateQuaternion, NonPositiveScale, SingularMatrix

Array = np.ndarray

#: below this |det| a matrix is treated as singular
DET_EPS = 1e-12

#: below this norm a quaternion cannot be normalized
QUAT_EPS = 1e-12


def quat_normalize(q: Array) -> Array:
    """Return q / ||q|| for one quaternion (4,) or each row of (N, 4),
    preserving direction.

    Raises DegenerateQuaternion if any ||q|| <= 1e-12.
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    n = np.sqrt(w * w + x * x + y * y + z * z)
    bad = n <= QUAT_EPS
    if np.any(bad):
        raise DegenerateQuaternion(f"quaternion norm {np.min(n[bad]):.3e} <= {QUAT_EPS:.0e}")
    return q / n[..., None]


def quat_to_rotmat(q: Array) -> Array:
    """Rotation matrix of a unit quaternion (w, x, y, z), shape (3, 3)."""
    w, x, y, z = (float(v) for v in q)
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ],
        dtype=np.float64,
    )


def rotmat_z(theta: float) -> Array:
    """Rotation about the z axis by theta radians."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=np.float64
    )


def covariance_from_scale_rot(s: Array, r: Array) -> Array:
    """Sigma = R diag(s)^2 R^T, symmetric positive definite.

    Raises NonPositiveScale if any scale component is <= 0.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s <= 0.0):
        raise NonPositiveScale(f"scales must be positive, got {s.tolist()}")
    rs = np.asarray(r, dtype=np.float64) * s  # R @ diag(s), column-scaled
    sigma = rs @ rs.T
    # enforce exact symmetry against rounding in the product
    return 0.5 * (sigma + sigma.T)


def mat3_det(a: Array) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def mat3_inverse(a: Array) -> Array:
    """Closed-form 3x3 inverse via the adjugate.

    Raises SingularMatrix if |det| <= 1e-12.
    """
    a = np.asarray(a, dtype=np.float64)
    det = mat3_det(a)
    if abs(det) <= DET_EPS:
        raise SingularMatrix(f"3x3 det {det:.3e} below threshold")
    adj = np.array(
        [
            [
                a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1],
                a[0, 2] * a[2, 1] - a[0, 1] * a[2, 2],
                a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1],
            ],
            [
                a[1, 2] * a[2, 0] - a[1, 0] * a[2, 2],
                a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0],
                a[0, 2] * a[1, 0] - a[0, 0] * a[1, 2],
            ],
            [
                a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0],
                a[0, 1] * a[2, 0] - a[0, 0] * a[2, 1],
                a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0],
            ],
        ],
        dtype=np.float64,
    )
    return adj / det

