"""Micro-benchmark harness for the three neighborhood-aggregation
implementations.

For each requested point count the harness first runs a correctness gate:
the broadcast and index-scatter outputs must match the scalar traversal
reference within ``GATE_TOL`` before any timing is reported.  Rows carry
wall-clock statistics (mean / median / p95 over ``reps`` runs), the
analytic peak-memory estimate of the implementation, and a CRC-32
checksum of the gated output so runs can be compared across machines.
An implementation that would exceed the memory cap is reported as an
``OOM-guard`` row instead of crashing the run.
"""

from __future__ import annotations

import statistics
import time
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .aggregation import (
    broadcast_mem_bytes,
    build_neighbor_index,
    index_scatter_mem_bytes,
    init_weights,
    lfa_broadcast_mask,
    lfa_index_scatter,
    lfa_traversal,
    traversal_mem_bytes,
)
from .config import DEFAULT_DIM, DEFAULT_MEM_CAP, DEFAULT_RADIUS
from .errors import AllocationLimit, InvalidSpec
from .pointcloud import PointCloud, SceneSpec, generate_scene

#: Max absolute elementwise deviation from the traversal reference.
GATE_TOL = 1e-9


@dataclass(frozen=True)
class BenchRow:
    """One implementation at one point count."""

    name: str
    n: int
    reps: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    est_mem_bytes: int
    checksum: str
    status: str  # "ok" or "OOM-guard"
    max_diff: float  # vs. traversal reference; 0.0 for the reference itself


@dataclass(frozen=True)
class BenchReport:
    rows: tuple
    gate_passed: bool
    gate_tol: float = GATE_TOL


def _checksum(out: np.ndarray) -> str:
    return f"{zlib.crc32(np.ascontiguousarray(out).tobytes()):08x}"


def _percentile95(times: list) -> float:
    ordered = sorted(times)
    rank = max(0, int(np.ceil(0.95 * len(ordered))) - 1)
    return ordered[rank]


def _time_reps(fn, reps: int) -> tuple:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.fmean(times), statistics.median(times), _percentile95(times)


def run_bench(
    n_list,
    *,
    c_raw: int = 4,
    c: int = DEFAULT_DIM,
    r: float = DEFAULT_RADIUS,
    reps: int = 5,
    seed: int = 0,
    mem_cap: int = DEFAULT_MEM_CAP,
) -> BenchReport:
    """Gate all implementations against the traversal reference, then time them."""
    if reps < 1:
        raise InvalidSpec(f"reps must be >= 1, got {reps}")
    layer = init_weights(seed, c_raw=c_raw, c=c).lfa
    rows = []
    gate_passed = True
    for n in n_list:
        cloud = generate_scene(SceneSpec(seed=seed, n_points=n, c_raw=c_raw))
        reference = lfa_traversal(cloud, layer, r)
        ref_sum = _checksum(reference)
        index = build_neighbor_index(cloud, r)
        impls = {
            "traversal": (
                lambda cl=cloud: lfa_traversal(cl, layer, r),
                traversal_mem_bytes(n, c_raw, c),
            ),
            "broadcast_mask": (
                lambda cl=cloud: lfa_broadcast_mask(cl, layer, r, mem_cap=mem_cap),
                broadcast_mem_bytes(n, c_raw),
            ),
            "index_scatter": (
                lambda cl=cloud: lfa_index_scatter(cl, layer, r, mem_cap),
                index_scatter_mem_bytes(n, c_raw, c, len(index), index.n_candidates),
            ),
        }
        for name, (fn, est) in impls.items():
            try:
                out = fn()
            except AllocationLimit:
                rows.append(BenchRow(name, n, 0, float("nan"), float("nan"),
                                     float("nan"), est, "-", "OOM-guard", float("nan")))
                continue
            diff = float(np.max(np.abs(out - reference))) if n else 0.0
            if not diff <= GATE_TOL:  # a NaN fails too
                gate_passed = False
                rows.append(BenchRow(name, n, 0, float("nan"), float("nan"),
                                     float("nan"), est, _checksum(out), "gate-failed", diff))
                continue
            mean_ms, median_ms, p95_ms = _time_reps(fn, reps)
            rows.append(BenchRow(name, n, reps, mean_ms, median_ms, p95_ms,
                                 est, ref_sum, "ok", diff))
    return BenchReport(rows=tuple(rows), gate_passed=gate_passed)


_COLUMNS = tuple(f.name for f in fields(BenchRow))


def _cell(row: BenchRow, col: str) -> str:
    value = getattr(row, col)
    if isinstance(value, float):
        return "-" if value != value else f"{value:.9g}"  # NaN -> "-"
    return str(value)


def format_report(report: BenchReport) -> str:
    """Aligned human-readable table."""
    grid = [_COLUMNS] + [tuple(_cell(row, c) for c in _COLUMNS) for row in report.rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in grid]
    if not report.gate_passed:
        lines.append(f"GATE FAILED: max_diff above {report.gate_tol:g}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: BenchReport) -> str:
    lines = [",".join(_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_cell(row, c) for c in _COLUMNS))
    return "\n".join(lines) + "\n"
