"""Geometry and small linear-algebra kernels against numpy references."""

import math

import numpy as np
import pytest

from rgkit.errors import DegenerateQuaternion, NonPositiveScale, SingularMatrix
from rgkit.geom import (
    covariance_from_scale_rot,
    mat3_det,
    mat3_inverse,
    quat_normalize,
    quat_to_rotmat,
    rotmat_z,
)
from rgkit.rng import SplitMix64, stream_seed


def _gen(name: str) -> SplitMix64:
    return SplitMix64(stream_seed(0, name))


def test_quat_normalize_unit_norm_and_direction():
    q = np.array([2.0, 0.0, 0.0, 0.0])
    out = quat_normalize(q)
    assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])
    q = np.array([1.0, 2.0, -2.0, 4.0])
    out = quat_normalize(q)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-15
    assert np.allclose(out * np.linalg.norm(q), q, rtol=1e-15)


def test_quat_normalize_rejects_zero():
    with pytest.raises(DegenerateQuaternion):
        quat_normalize(np.zeros(4))
    with pytest.raises(DegenerateQuaternion):
        quat_normalize(np.full(4, 1e-13))
    with pytest.raises(DegenerateQuaternion):
        quat_normalize(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))


def test_quat_normalize_rows_match_one_at_a_time():
    q = _gen("quat-rows").normals(4 * 50).reshape(50, 4) * 1e3
    rows = quat_normalize(q)
    assert rows.shape == (50, 4)
    assert all(np.array_equal(rows[i], quat_normalize(q[i])) for i in range(50))


def test_quat_to_rotmat_identity_and_z_quarter_turn():
    assert np.array_equal(quat_to_rotmat(np.array([1.0, 0, 0, 0])), np.eye(3))
    half = math.pi / 4.0  # quaternion half-angle for a 90 degree turn
    q = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    assert np.allclose(quat_to_rotmat(q), rotmat_z(math.pi / 2.0), atol=1e-15)


def test_quat_to_rotmat_is_rotation():
    gen = _gen("quat")
    for _ in range(50):
        q = quat_normalize(gen.normals(4))
        rot = quat_to_rotmat(q)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-14)
        assert abs(mat3_det(rot) - 1.0) < 1e-14


def test_rotmat_z_known_angles():
    assert np.allclose(rotmat_z(0.0), np.eye(3))
    got = rotmat_z(math.pi / 2.0)
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(got, want, atol=1e-15)
    # x axis rotates onto y
    assert np.allclose(got @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_covariance_identity_rotation_is_diag_of_squares():
    sigma = covariance_from_scale_rot(np.array([1.0, 2.0, 3.0]), np.eye(3))
    assert np.array_equal(sigma, np.diag([1.0, 4.0, 9.0]))


def test_covariance_matches_dense_formula_and_is_symmetric():
    gen = _gen("cov")
    for _ in range(25):
        s = 0.1 + gen.uniforms(3) * 3.0
        rot = quat_to_rotmat(quat_normalize(gen.normals(4)))
        sigma = covariance_from_scale_rot(s, rot)
        want = rot @ np.diag(s**2) @ rot.T
        assert np.allclose(sigma, want, atol=1e-13)
        assert np.array_equal(sigma, sigma.T)
        assert np.all(np.linalg.eigvalsh(sigma) > 0)


def test_covariance_rejects_nonpositive_scale():
    for bad in ([0.0, 1.0, 1.0], [1.0, -2.0, 1.0]):
        with pytest.raises(NonPositiveScale):
            covariance_from_scale_rot(np.array(bad), np.eye(3))


def test_mat3_det_trace_inverse_against_numpy():
    gen = _gen("mat3")
    for _ in range(50):
        a = gen.normals(9).reshape(3, 3) + 2.0 * np.eye(3)
        assert abs(mat3_det(a) - np.linalg.det(a)) < 1e-10 * max(1.0, abs(mat3_det(a)))
        inv = mat3_inverse(a)
        assert np.allclose(inv @ a, np.eye(3), atol=1e-10)


def test_mat3_inverse_rejects_singular():
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        mat3_inverse(singular)

