"""Single-core benchmark of the Point Gaussian encoder and the Box Gaussian Loss.

    python3 perfbench/run.py --workload {vod-sparse,tj4d-dense,boxes} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``rgkit`` is imported from its ``src/``.
The script makes the workload's inputs from the seed, starts set-up
probes and then the timed worker (``worker.py``) as child processes,
checks every output the worker reports against computations of its own
(``checks.py``), and prints one JSON object as its last line.  It exits
non-zero if an op failed or a check did not pass.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# NumPy, rgkit and the benchmark's own modules are imported inside functions,
# after pin_blas() has set the thread-count variables NumPy reads on load.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up probes per run, besides the worker's own set-up.
SETUP_PROBES = 4
#: Grace beyond ``--seconds`` for the worker: imports, warm-up, the pass
#: that crosses the deadline.
WORKER_GRACE_S = 90
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "op_ms.p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
COUNT_UNITS = {"splat.map_bytes": "bytes", "aggregation.gfa_score_bytes": "bytes"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS/OpenMP threads; 0 leaves the library default "
                        "(only for the reference figures in README.md)")
    p.add_argument("--encode-threads", type=int, default=1,
                   help="threads= passed to encode/rasterize; 0 is the config "
                        "default, all cores (only for the reference figures)")
    return p.parse_args(argv)


def pin_blas(threads: int) -> None:
    """Must run before NumPy is first imported, here and in the children."""
    for var in BLAS_VARS:
        if threads > 0:
            os.environ[var] = str(threads)
        else:
            os.environ.pop(var, None)


def start_child(job: dict, run_dir: Path, timeout: float) -> dict:
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                   check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    name = "setup.json" if job["setup_only"] else "result.json"
    return json.loads((run_dir / name).read_text(encoding="utf-8"))


def make_inputs(name, spec, seed, run_dir, rgkit):
    """Write the seeded inputs where the worker reads them; return them."""
    import numpy as np

    import workloads

    rng = workloads.rng_for(name, seed)
    if isinstance(spec, workloads.BoxWorkload):
        batches = workloads.make_box_batches(spec, rng)
        arrays = {}
        for i, (pred, gt, classes) in enumerate(batches):
            arrays.update({f"pred{i}": pred, f"gt{i}": gt, f"cls{i}": np.array(classes)})
        np.savez(run_dir / "inputs.npz", **arrays)
        return batches
    cfg = rgkit.apply_preset(rgkit.RunConfig(), spec.preset).validate()
    lo = (cfg.x_min, cfg.y_min, cfg.z_min)
    hi = (cfg.x_max, cfg.y_max, cfg.z_max)
    frames = workloads.make_frames(spec, lo, hi, rng)
    for i, (pos, feats) in enumerate(frames):
        workloads.write_cloud_csv(run_dir / f"frame{i}.csv", pos, feats)
    return frames


def check_encoder(spec, frames, records, seed, run_dir, rgkit, name) -> dict:
    """Failure messages per frame index (empty list: every check passed)."""
    import numpy as np

    import checks
    import workloads

    cfg = rgkit.apply_preset(rgkit.RunConfig(), spec.preset).validate()
    params = rgkit.init_weights(workloads.WEIGHT_SEED, c_raw=workloads.C_RAW, c=cfg.c,
                                n_heads=cfg.n_heads, r=cfg.r, s_min=cfg.s_min)
    bev, st = cfg.bev(), cfg.raster_settings()
    rng = workloads.rng_for(name, seed, purpose=1)
    fails = {}
    for i, (pos, feats) in enumerate(frames):
        f = fails[i] = []
        cloud = rgkit.read_cloud(run_dir / f"frame{i}.csv")
        if not (np.array_equal(cloud.positions, pos) and np.array_equal(cloud.features, feats)):
            f.append("read_cloud does not give back the written cloud")
        # The map the worker's last op on this frame wrote; every op must have made it.
        head, data = checks.load_rgfm(run_dir / f"map{i}.rgfm")
        if head != (params.feature_dim, bev.h, bev.w, bev.x_min, bev.x_max, bev.y_min, bev.y_max):
            f.append(f"RGFM header {head} does not describe the map")
        want = checks.digest(data)
        for rec in records:
            if rec["frame"] != i or "error" in rec:
                continue
            if rec["digest"] != want:
                f.append("map differs between repeats of the frame")
            if rec.get("digest_t2", want) != want:
                f.append(f"map differs between rasterize threads=1 and threads={os.cpu_count()}")
            if not rec["file_ok"]:
                f.append("RGFM read back is not byte-equal to the map")
        if i == 0:
            if checks.digest(rgkit.encode(cloud, params, bev, st, threads=2).data) != want:
                f.append("map differs between encode threads=1 and threads=2")

        index = rgkit.build_neighbor_index(cloud, params.r)
        lo, hi = checks.neighbor_pair_bounds(pos, params.r)
        if not lo <= len(index) <= hi:
            f.append(f"neighbour pairs {len(index)} outside k-d tree bounds [{lo}, {hi}]")
        rows = rng.choice(len(pos), size=16, replace=False)
        f_lfa = rgkit.lfa_index_scatter(cloud, params.lfa, params.r)
        f += checks.check_rows("lfa", f_lfa, checks.lfa_rows(pos, feats, params.lfa, params.r, rows))
        f_gfa = rgkit.gfa(cloud, params.attn)
        f += checks.check_rows("gfa", f_gfa, checks.gfa_rows(feats, params.attn, rows))
        prims = rgkit.predict_attributes(cloud, f_lfa, f_gfa, params.head, params.s_min)
        splats = checks.project(prims, bev, st)
        pixels = checks.sample_pixels(data, splats, bev, st, rng)
        f += checks.check_pixels(data, splats, st, pixels)
        hit = checks.distinct_hit_pixels(pos, bev)
        nonzero = rgkit.nonzero_pixels(rgkit.BevFeatureMap(data, bev))
        if nonzero < hit:
            f.append(f"nonzero_pixels {nonzero} < {hit} pixels hit by points")
        del data, f_lfa, f_gfa, prims, splats
    return fails


def check_boxes(batches, records, seed, rgkit, name) -> dict:
    import numpy as np

    import checks
    import workloads

    cfg = rgkit.RunConfig().validate().bgl_config()
    rng = workloads.rng_for(name, seed, purpose=1)
    fails = {}
    for i, (pred, gt, classes) in enumerate(batches):
        f = fails[i] = []
        a = np.array([cfg.a_for(c) for c in classes])
        p_boxes = [rgkit.Box3D(*row) for row in pred.tolist()]
        g_boxes = [rgkit.Box3D(*row) for row in gt.tolist()]
        kls = [rgkit.kl_divergence(rgkit.box_to_gaussian(p, ai), rgkit.box_to_gaussian(t, ai)).total
               for p, t, ai in zip(p_boxes, g_boxes, a)]
        expected = checks.kl_reference(pred, gt, a)
        f += checks.check_kls(kls, expected)
        for k, (t, ai) in enumerate(zip(g_boxes, a)):
            g = rgkit.box_to_gaussian(t, ai)
            if rgkit.kl_divergence(g, g).total != 0.0:
                f.append(f"KL(b, b) != 0 for ground-truth box {k}")
                break
        grads = [rgkit.bgl_gradient(p, t, ai) for p, t, ai in zip(p_boxes, g_boxes, a)]
        sample = rng.choice(len(pred), size=32, replace=False)
        f += checks.check_gradients(grads, pred, gt, a, sample)
        want = checks.digest(np.array(grads))
        for rec in records:
            if rec["frame"] != i or "error" in rec:
                continue
            f += checks.check_mean(rec["loss"], expected)
            if rec["digest"] != want:
                f.append("gradients differ from the same batch differentiated in the checker")
    return fails


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rgkit" / "__init__.py").is_file():
        print(f"perfbench: no rgkit package under {SRC}", file=sys.stderr)
        return 2
    pin_blas(args.blas_threads)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rgkit

    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seconds <= 0:
        print(f"perfbench: unknown workload {args.workload!r} or bad --seconds", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    run_dir = out_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(args.workload, spec, args.seed, run_dir, rgkit)
        job = {
            "src": str(SRC), "workload": args.workload, "run_dir": str(run_dir),
            "seconds": args.seconds, "trace": bool(args.trace), "inputs": len(inputs),
            "weight_seed": workloads.WEIGHT_SEED, "c_raw": workloads.C_RAW,
            "encode_threads": args.encode_threads,
            "trace_path": str(out_dir / f"trace-{args.workload}-s{args.seed}.jsonl"),
        }
        timeout = args.seconds + WORKER_GRACE_S
        setup = [start_child({**job, "setup_only": True}, run_dir, timeout)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        result = start_child({**job, "setup_only": False}, run_dir, timeout)
        setup.append(result["setup_s"])
        records = result["records"]
        if isinstance(spec, workloads.BoxWorkload):
            fails = check_boxes(inputs, records, args.seed, rgkit, args.workload)
        else:
            fails = check_encoder(spec, inputs, records, args.seed, run_dir, rgkit, args.workload)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for r in records:
        r["failed"] = "error" in r or bool(fails[r["frame"]])
    failed = sum(r["failed"] for r in records)
    correct = not any(fails.values())
    for i, msgs in fails.items():
        for msg in msgs[:5]:
            print(f"CHECK FAILED input {i}: {msg}")
    for r in records:
        if "error" in r:
            print(f"OP FAILED input {r['frame']}: {r['error']}")
    good = [r["s"] for r in records if not r["failed"] and not r["traced"]]
    print(f"{args.workload} seed {args.seed}: {len(records)} ops attempted, {failed} failed, "
          f"{len(inputs)} inputs per pass, checks {'passed' if correct else 'FAILED'}")
    if good:
        tail = stats.tail_percentile([s * 1e3 for s in good])
        line = f"op_ms p50 {stats.median(good) * 1e3:.2f} (n={len(good)})"
        if tail:
            line += f", p{tail[0]:g} {tail[1]:.2f} (n={tail[2]}, not gated)"
        print(line)
    if args.trace:
        metrics = {name: {"value": value, "unit": COUNT_UNITS.get(name, "ms" if name.endswith("_ms") else "count")}
                   for name, value in result["layers"].items()}
        print(f"trace written to {job['trace_path']}")
    else:
        values = {
            "setup_s": stats.median(setup),
            "op_ms.p50": stats.median(good) * 1e3 if good else 0.0,
            "ops_per_s": stats.mean_rate(good) if good else 0.0,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
