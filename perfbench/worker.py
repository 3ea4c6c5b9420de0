"""Timed process of the benchmark; ``run.py`` starts it and reads its result.

``python3 perfbench/worker.py JOB.json`` imports ``rgkit`` from the
checkout's ``src/``, builds the workload's config and weights (that is
``setup_s``), and, unless the job asks for set-up only, times whole
passes over the workload's inputs.  Its peak resident memory is read
right after the last timed op, before anything else is done, so the
benchmark's own input generation and checks (which run in ``run.py``)
never set that mark.  The result goes to ``result.json`` in the job's
run directory; with tracing on, the spans go to the job's trace file.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# NumPy and the modules that use it (``checks``, ``workloads``) are imported
# only inside functions: the set-up clock starts before ``import rgkit``,
# which pays for loading NumPy as it does in a user's process.

# Span name -> per-layer metric holding its median self time.
SPAN_METRICS = {
    "pointcloud.read": "pointcloud.read_ms",
    "splat.write": "splat.write_ms",
    "aggregation.neighbor": "aggregation.neighbor_ms",
    "aggregation.lfa": "aggregation.lfa_ms",
    "aggregation.gfa": "aggregation.gfa_ms",
    "aggregation.head": "aggregation.head_ms",
    "splat.project": "splat.project_ms",
    "splat.sort": "splat.sort_ms",
    "splat.bin": "splat.bin_ms",
    "splat.rasterize": "splat.rasterize_ms",
    "splat.rasterize_t2": "splat.rasterize_t2_ms",
    "boxloss.bgl": "boxloss.bgl_ms",
    "boxloss.grad": "boxloss.grad_ms",
}
COUNT_METRICS = (
    "splat.map_bytes",
    "aggregation.neighbor_pairs",
    "aggregation.neighbors_per_point",
    "aggregation.gfa_score_bytes",
    "splat.tile_splat_pairs",
    "splat.max_splats_per_tile",
    "splat.blend_evals",
    "splat.nonzero_pixels",
    "boxloss.pairs",
)


class Tracer:
    """Spans ``(name, start, end, parent, op)`` kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its children (s)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class EncoderOps:
    """Frames of a ``vod``/``tj4d`` workload: each op reads a cloud CSV,
    encodes it and writes the RGFM map, as ``rgk encode`` does."""

    def __init__(self, rgkit, spec, job):
        cfg = rgkit.apply_preset(rgkit.RunConfig(), spec.preset).validate()
        self.params = rgkit.init_weights(
            job["weight_seed"], c_raw=job["c_raw"], c=cfg.c, n_heads=cfg.n_heads,
            r=cfg.r, s_min=cfg.s_min,
        )
        self.bev = cfg.bev()
        self.settings = cfg.raster_settings()
        self.rgkit = rgkit
        self.threads = job["encode_threads"]

    def load(self, run_dir: Path, frames: int):
        self.inputs = [run_dir / f"frame{i}.csv" for i in range(frames)]
        self.outputs = [run_dir / f"map{i}.rgfm" for i in range(frames)]

    def op(self, i):
        rg = self.rgkit
        fmap = rg.encode(rg.read_cloud(self.inputs[i]), self.params, self.bev, self.settings,
                         threads=self.threads)
        rg.write_feature_map(fmap, self.outputs[i])
        return fmap

    def record(self, i, fmap) -> dict:
        import checks

        return {"digest": checks.digest(fmap.data),
                "file_ok": checks.rgfm_matches(self.outputs[i], fmap.data, self.bev)}

    def traced_op(self, i, tr: Tracer):
        """The op decomposed into the public calls that ``encode`` makes,
        one span each; sort and bin are repeated outside ``rasterize`` to
        time them and count tiles."""
        from rgkit.splat import build_tile_grid, sort_splats

        import checks

        rg, p, bev, st = self.rgkit, self.params, self.bev, self.settings
        with tr.span("op"):
            with tr.span("pointcloud.read"):
                cloud = rg.read_cloud(self.inputs[i])
            with tr.span("aggregation.neighbor"):
                index = rg.build_neighbor_index(cloud, p.r)
            with tr.span("aggregation.lfa"):
                f_lfa = rg.lfa_index_scatter(cloud, p.lfa, p.r)
            with tr.span("aggregation.gfa"):
                f_gfa = rg.gfa(cloud, p.attn)
            with tr.span("aggregation.head"):
                prims = rg.predict_attributes(cloud, f_lfa, f_gfa, p.head, p.s_min)
            with tr.span("splat.project"):
                splats = [rg.project_to_bev(g, bev, st.lambda_blur, k) for k, g in enumerate(prims)]
            with tr.span("splat.sort"):
                order = sort_splats(splats, st.blend_order)
            with tr.span("splat.bin"):
                grid = build_tile_grid(order, bev, st)
            with tr.span("splat.rasterize"):
                fmap = rg.rasterize(splats, bev, p.feature_dim, st, threads=self.threads)
            with tr.span("splat.write"):
                rg.write_feature_map(fmap, self.outputs[i])
        with tr.span("splat.rasterize_t2"):
            fmap_t2 = rg.rasterize(splats, bev, p.feature_dim, st, threads=os.cpu_count() or 1)
        ts = grid.tile_size
        sizes = [len(t) for t in grid.tiles]
        evals = 0
        for k, size in enumerate(sizes):
            ty, tx = divmod(k, grid.n_tiles_x)
            evals += size * (min(ts, bev.h - ty * ts) * min(ts, bev.w - tx * ts))
        n = len(cloud)
        counts = {
            "splat.map_bytes": os.path.getsize(self.outputs[i]),
            "aggregation.neighbor_pairs": len(index),
            "aggregation.neighbors_per_point": len(index) / n,
            "aggregation.gfa_score_bytes": 8 * n * n,
            "splat.tile_splat_pairs": sum(sizes),
            "splat.max_splats_per_tile": max(sizes),
            "splat.blend_evals": evals,
            "splat.nonzero_pixels": rg.nonzero_pixels(fmap),
        }
        rec = self.record(i, fmap)
        rec["digest_t2"] = checks.digest(fmap_t2.data)
        return rec, counts


class BoxOps:
    """Box batches scored by ``bgl`` and differentiated by ``bgl_gradient``."""

    def __init__(self, rgkit, spec, job):
        self.bgl_config = rgkit.RunConfig().validate().bgl_config()
        self.rgkit = rgkit

    def load(self, run_dir: Path, batches: int):
        import numpy as np

        data = np.load(run_dir / "inputs.npz")
        Box3D = self.rgkit.Box3D
        self.inputs = []
        for i in range(batches):
            pred = [Box3D(*row) for row in data[f"pred{i}"].tolist()]
            gt = [Box3D(*row) for row in data[f"gt{i}"].tolist()]
            self.inputs.append((pred, gt, data[f"cls{i}"].tolist()))

    def op(self, i):
        pred, gt, classes = self.inputs[i]
        cfg = self.bgl_config
        loss = self.rgkit.bgl(pred, gt, classes, cfg)
        grads = [self.rgkit.bgl_gradient(p, t, cfg.a_for(c)) for p, t, c in zip(pred, gt, classes)]
        return loss, grads

    def record(self, i, out) -> dict:
        import checks
        import numpy as np

        loss, grads = out
        return {"loss": loss, "digest": checks.digest(np.array(grads))}

    def traced_op(self, i, tr: Tracer):
        pred, gt, classes = self.inputs[i]
        cfg = self.bgl_config
        rg = self.rgkit
        with tr.span("op"):
            with tr.span("boxloss.bgl"):
                loss = rg.bgl(pred, gt, classes, cfg)
            with tr.span("boxloss.grad"):
                grads = [rg.bgl_gradient(p, t, cfg.a_for(c)) for p, t, c in zip(pred, gt, classes)]
        return self.record(i, (loss, grads)), {"boxloss.pairs": len(pred)}


def run_pass(ops, k: int, records: list, tracer=None, layer_rows=None):
    """One pass over inputs ``0..k-1``; every op starts from a collected heap."""
    for i in range(k):
        gc.collect()
        rec = {"frame": i, "traced": tracer is not None}
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = ops.op(i)
                rec["s"] = time.perf_counter() - t0
                rec.update(ops.record(i, out))
                del out
            else:
                tracer.op = len(records)
                first = len(tracer.spans)
                more, counts = ops.traced_op(i, tracer)
                rec.update(more)
                layer_rows.append((first, len(tracer.spans), counts))
                op_span = tracer.spans[first]
                rec["s"] = op_span[2] - op_span[1]
        except Exception as exc:  # an op that raises is a failed op
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)


def layer_metrics(tracer: Tracer, layer_rows: list, records: list) -> dict:
    import statistics

    own = tracer.self_times()
    per_name = {name: [] for name in SPAN_METRICS}
    blend, counts = [], {name: [] for name in COUNT_METRICS}
    for first, stop, op_counts in layer_rows:
        ms = {}
        for j in range(first, stop):
            name = tracer.spans[j][0]
            if name in per_name:
                ms[name] = own[j] * 1e3
                per_name[name].append(ms[name])
        if "splat.rasterize" in ms:
            blend.append(ms["splat.rasterize"] - ms["splat.sort"] - ms["splat.bin"])
        for name in COUNT_METRICS:
            counts[name].append(op_counts.get(name, 0))

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    out = {metric: med(per_name[name]) for name, metric in SPAN_METRICS.items()}
    out["splat.blend_ms"] = med(blend)
    out.update({name: med(values) for name, values in counts.items()})
    traced = [r["s"] * 1e3 for r in records if r["traced"] and "s" in r]
    plain = [r["s"] * 1e3 for r in records if not r["traced"] and "s" in r]
    out["trace.overhead_ms"] = med(traced) - med(plain)
    return out


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import rgkit

    from workloads import WORKLOADS, EncoderWorkload

    spec = WORKLOADS[job["workload"]]
    ops = (EncoderOps if isinstance(spec, EncoderWorkload) else BoxOps)(rgkit, spec, job)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    run_dir = Path(job["run_dir"])
    if not job["setup_only"]:
        k = job["inputs"]
        ops.load(run_dir, k)
        records = []
        ops.record(0, ops.op(0))  # warm-up, discarded
        tracer, layer_rows = Tracer(), []
        deadline = time.perf_counter() + job["seconds"]
        while True:  # whole passes; traced passes alternate with plain ones
            run_pass(ops, k, records)
            if job["trace"]:
                run_pass(ops, k, records, tracer, layer_rows)
            if time.perf_counter() >= deadline:
                break
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["records"] = records
        if job["trace"]:
            tracer.write(job["trace_path"])
            result["layers"] = layer_metrics(tracer, layer_rows, records)
    out = run_dir / ("setup.json" if job["setup_only"] else "result.json")
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
