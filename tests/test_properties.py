"""Property tests of the box-loss input contract: on adversarial values,
``read_boxes``, ``bgl`` and ``bgl_gradient`` return a finite result or
raise a typed ``RgkError``, and ``rgk bgl`` exits 0, 2, 3 or 4, never 1.
A leaked NumPy ``RuntimeWarning`` fails these tests too (see pyproject)."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rgkit.boxloss import BglConfig, Box3D, bgl, bgl_gradient, read_boxes, write_boxes
from rgkit.cli import main
from rgkit.errors import RgkError

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])

#: finite floats of every magnitude, biased toward edges of the box contract
finite = st.one_of(
    st.floats(-100.0, 100.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-3, 5e-324, 1e-200, 1e77, 1e154, 1e300,
                     1.7976931348623157e308, -1.7976931348623157e308, math.pi]),
)
sharpness = st.one_of(st.sampled_from([1.0, 3.0, 0.0, -1.0, math.inf, math.nan]),
                      st.floats())
boxes = st.builds(Box3D, finite, finite, finite, finite, finite, finite, finite)


@_SETTINGS
@given(st.lists(st.tuples(boxes, boxes), min_size=1, max_size=4), sharpness)
def test_bgl_is_finite_or_a_typed_error(pairs, a):
    pred, gt = [p for p, _ in pairs], [t for _, t in pairs]
    try:
        mean = bgl(pred, gt, None, BglConfig({}, a))
    except RgkError:
        return
    assert math.isfinite(mean)


@_SETTINGS
@given(boxes, boxes, sharpness)
def test_bgl_gradient_is_finite_or_a_typed_error(pred, gt, a):
    try:
        grad = bgl_gradient(pred, gt, a)
    except RgkError:
        return
    assert grad.shape == (7,) and np.all(np.isfinite(grad))


@_SETTINGS
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(st.sampled_from(["1", "-2.5", "1e308", "nan", "inf", "1e-400", "",
                                       " 3 ", "car", "x", "0x10", "1_0", "é"]),
                      max_size=9).map(",".join), max_size=5)
    .map(lambda rows: ("x,y,z,l,w,h,theta\n" + "\n".join(rows)).encode()),
))
def test_read_boxes_returns_boxes_or_a_typed_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "boxes.csv"
        path.write_bytes(blob)
        try:
            boxes, classes = read_boxes(path)
        except RgkError:
            return
    assert all(isinstance(b, Box3D) for b in boxes)
    assert classes is None or len(classes) == len(boxes)


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(boxes, boxes, st.sampled_from(["car", "pedestrian", "bus"])),
                min_size=1, max_size=3),
       st.one_of(st.none(), st.sampled_from([1e-150, 1e103, math.inf]), st.floats(0.01, 1e6)))
def test_rgk_bgl_exits_0_2_3_or_4(triples, a_default):
    with tempfile.TemporaryDirectory() as tmp:
        pred, gt = Path(tmp) / "pred.csv", Path(tmp) / "gt.csv"
        classes = [c for _, _, c in triples]
        write_boxes([p for p, _, _ in triples], pred, classes=classes)
        write_boxes([t for _, t, _ in triples], gt, classes=classes)
        argv = ["bgl", "--pred", str(pred), "--gt", str(gt), "--grad-check"]
        if a_default is not None:
            argv += ["--set", f"a_default={a_default!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")
