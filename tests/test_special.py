"""The NumPy error function and GELU: bit for bit equal to SciPy's
``erf`` on sweeps around every branch point, on special values and on
random arrays, blocked evaluation at any shape, and no RuntimeWarning
(the suite turns one into an error) however large the argument."""

import math
import warnings

import numpy as np
import pytest

from rgkit.special import BLOCK, erf, gelu

scipy_special = pytest.importorskip("scipy.special")

#: Cephes' MAXLOG: erfc flushes to 0 once x * x exceeds it
MAXLOG = 7.09782712893383996843e2


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same.ravel())
    assert bad.size == 0, (f"{bad.size} of {got.size} differ, first at "
                           f"x-index {bad[0]}: {got.ravel()[bad[0]]!r} vs {want.ravel()[bad[0]]!r}")


def _check_erf(x):
    x = np.asarray(x, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erf(x)
    _assert_same_bits(got, scipy_special.erf(x))


def _neighbours(c, k=2000):
    """``c`` and the ``k`` doubles on either side of it."""
    up, down = [c], [c]
    for _ in range(k):
        up.append(np.nextafter(up[-1], math.inf))
        down.append(np.nextafter(down[-1], -math.inf))
    return np.array(down[::-1] + up[1:])


# 1: the branch point; 6: where 1 - erfc starts to round to 1; 8: Cephes'
# switch to R/S; sqrt(MAXLOG): its flush of erfc to 0
@pytest.mark.parametrize("c", [1.0, 6.0, 8.0, math.sqrt(MAXLOG)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_erf_matches_scipy_around_each_branch_point(c, sign):
    _check_erf(_neighbours(sign * c))
    _check_erf(sign * c + np.linspace(-0.05, 0.05, 100_001))


def test_erf_matches_scipy_across_the_tail():
    x = np.linspace(1.0, 30.0, 400_001)
    _check_erf(x)
    _check_erf(-x)


def test_erf_matches_scipy_on_special_values():
    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny, 1e-200,
                  np.nextafter(tiny, 0), 1e-8, -1e-8, 26.6, 26.65, -26.65, 27.0, 40.0, 1e10,
                  1.3e154, -1.4e154, 1e300, -1e300, big, -big, math.inf, -math.inf, math.nan])
    _check_erf(x)
    got = erf(x)
    assert math.copysign(1.0, got[1]) == -1.0  # erf(-0) is -0
    assert got[-3] == 1.0 and got[-2] == -1.0 and math.isnan(got[-1])


@pytest.mark.parametrize("scale", [0.1, 0.7, 1.0, 3.0, 10.0, 1000.0, 1e200])
def test_erf_matches_scipy_on_random_arrays(scale):
    rng = np.random.default_rng(int(math.log10(scale) * 10) + 100)
    _check_erf(rng.standard_normal(300_000) * scale)
    _check_erf(rng.uniform(-scale, scale, 300_000))


@pytest.mark.parametrize("shape", [(0,), (1,), (BLOCK - 1,), (BLOCK + 1,), (3, BLOCK // 2 + 7),
                                   (2, 3, 5)])
def test_erf_keeps_shape_across_block_boundaries(shape):
    x = np.random.default_rng(7).standard_normal(shape) * 2.0
    _check_erf(x)
    _check_erf(np.asfortranarray(x))


def test_erf_of_a_strided_view_and_a_list():
    x = np.random.default_rng(8).standard_normal((200, 300)) * 3.0
    _check_erf(x[::3, ::-2])
    _check_erf(x.T)
    assert erf([0.5, -2.0]).tolist() == scipy_special.erf([0.5, -2.0]).tolist()


def _scipy_gelu(x):
    return 0.5 * x * (1.0 + scipy_special.erf(x / math.sqrt(2.0)))


@pytest.mark.parametrize("scale", [0.1, 0.8, 3.0, 40.0])
def test_gelu_matches_the_scipy_formula(scale):
    x = np.random.default_rng(int(scale * 10)).standard_normal((2500, 128)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gelu(x)
    _assert_same_bits(got, _scipy_gelu(x))


def test_gelu_of_huge_values_warns_of_nothing():
    big = np.finfo(np.float64).max
    x = np.array([1e300, -1e300, big, -big, 1e154, -1e154, 0.0, -0.0, 5e-324, -5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gelu(x)
    _assert_same_bits(got, _scipy_gelu(x))
    assert got[0] == 1e300 and got[1] == 0.0 and got[2] == big


def test_gelu_does_not_modify_its_argument():
    x = np.random.default_rng(9).standard_normal((5, BLOCK // 3)) * 2.0
    before = x.copy()
    gelu(x)
    assert np.array_equal(x, before)
