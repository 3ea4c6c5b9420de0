"""The error function and the exact GELU on float64 arrays, in NumPy alone.

:func:`erf` ports the Cephes ``erf`` of ``ndtr.c`` (S. L. Moshier), the
algorithm ``scipy.special.erf`` runs for real arguments, and returns the
same bits:

* ``|x| <= 1``: ``x * T(z) / U(z)`` with ``z = x * x``, ``T`` by Horner
  from its leading coefficient (``polevl``) and ``U`` monic (``p1evl``);
* ``|x| > 1``: ``±(1 - erfc|x|)`` with ``erfc|x| = exp(-x*x) P(|x|) / Q(|x|)``.

The Horner steps multiply and add separately, as the C does, and
``exp`` is libm's (``math.exp``): ``np.exp`` rounds differently on some
arguments, and that changes a few erf values in the last bit.  Cephes
switches to a second rational form ``R / S`` at ``|x| = 8`` and
flushes erfc to 0 once ``x * x > MAXLOG``; neither can change an erf
bit, because from ``|x| = 6`` on erfc is below 2.2e-17, under half an
ulp of 1, and ``1 - erfc`` rounds to 1.  So ``|x| >= 6`` maps to ±1
directly, ±inf too, and NaN maps to NaN.

Arrays are evaluated in blocks of :data:`BLOCK` elements that reuse the
same scratch buffers, so the transient memory stays a few cache-sized
rows whatever the input size.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray

#: Elements per block: the scratch rows stay resident in cache.
BLOCK = 16384

_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
#: From here on ``1 - erfc(x)`` rounds to exactly 1.
_ERFC_NEGLIGIBLE = 6.0
_ROOT2 = math.sqrt(2.0)


def _horner(x: Array, coef: tuple, out: Array, monic: bool = False) -> Array:
    """Cephes ``polevl`` (``monic=False``) or ``p1evl`` (leading 1 implied)
    of ``x`` into ``out``, one rounding per multiply and per add."""
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _erf_block(x: Array, out: Array, z: Array, t: Array, u: Array) -> None:
    """erf of the 1-D block ``x`` into ``out``; ``z``, ``t`` and ``u`` are
    scratch of the same length.  ``out`` may be ``x`` itself."""
    # the |x| <= 1 form on every element; the tail is overwritten below,
    # so its inf / nan from huge or infinite arguments is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(x, x, out=z)
        tail = np.flatnonzero(z > 1.0)  # |x| > 1 (NaN is not)
        x_tail = x[tail]
        _horner(z, _T, t)
        _horner(z, _U, u, monic=True)
        np.multiply(x, t, out=out)
        out /= u
    if not tail.size:
        return
    a = np.abs(x_tail)
    live = np.flatnonzero(a < _ERFC_NEGLIGIBLE)
    a_live = a[live]
    z_live = z[tail[live]]
    # exp(-(a a)), as Cephes negates the rounded square
    e = np.fromiter(map(math.exp, (-z_live).tolist()), np.float64, len(live))
    p = _horner(a_live, _P, np.empty_like(a_live))
    q = _horner(a_live, _Q, np.empty_like(a_live), monic=True)
    e *= p
    e /= q
    one = np.ones_like(a)
    one[live] -= e
    out[tail] = np.copysign(one, x_tail)


def _blocked(x, kernel) -> Array:
    """``kernel(x_block, out_block, z, t, u)`` over ``x`` in blocks of
    :data:`BLOCK` elements with three reused scratch rows."""
    x = np.asarray(x, dtype=np.float64)
    src = x.ravel()
    out = np.empty(x.shape)
    dst = out.reshape(-1)
    scratch = np.empty((3, min(BLOCK, src.size)))
    for s in range(0, src.size, BLOCK):
        xb = src[s:s + BLOCK]
        kernel(xb, dst[s:s + BLOCK], *scratch[:, :xb.size])
    return out


def _gelu_block(x: Array, out: Array, z: Array, t: Array, u: Array) -> None:
    """GELU of the 1-D block ``x`` into ``out``, rounded as
    ``(erf(x / sqrt(2)) + 1) * (0.5 * x)``."""
    np.divide(x, _ROOT2, out=out)
    _erf_block(out, out, z, t, u)
    out += 1.0
    np.multiply(x, 0.5, out=z)
    out *= z


def erf(x) -> Array:
    """The error function of a float64 array, bit-identical to
    ``scipy.special.erf``."""
    return _blocked(x, _erf_block)


def gelu(x) -> Array:
    """Exact Gaussian-error linear unit: ``0.5 * x * (1 + erf(x / sqrt(2)))``."""
    return _blocked(x, _gelu_block)
