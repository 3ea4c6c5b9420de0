"""``rgk`` command-line interface.

Commands
--------
* ``generate``   synthesize a clustered radar scene and write it out
* ``encode``     point cloud -> aggregated features -> splatted BEV map
* ``bench-lfa``  gate + time the three aggregation implementations
* ``bgl``        per-pair divergence report for two box lists
* ``selftest``   fast end-to-end check battery

Configuration precedence (lowest to highest): built-in defaults, then
``--config`` file, then ``--preset``, then ``--set KEY=VALUE`` overrides,
then specific flags such as ``--seed``.  ``main`` merges and validates
it before a command reads any file; ``--dump-config`` prints the merged
configuration and exits without doing work.

Exit codes: 0 success; 1 usage error; 2 malformed input or I/O failure;
3 numerical or shape failure; 4 a gate or check reported a failure.
Errors print a single ``error: <Type>: <message>`` line on stderr.

Each command imports the modules it runs when it starts, so ``rgk bgl``
and ``--dump-config`` load no encoder module.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .boxloss import GRAD_CHECK_TOL, _finite_gradient, _pair_terms, fd_gradient, read_boxes
from .config import (
    PRESETS,
    RunConfig,
    apply_preset,
    apply_updates,
    dump_config,
    load_config,
)
from .errors import FormatError, InvalidSpec, RgkError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    if args.overrides:
        raw = {}
        for item in args.overrides:
            if "=" not in item:
                raise InvalidSpec(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()
        cfg = apply_updates(cfg, raw)
    return cfg.validate()


def cmd_generate(args, cfg: RunConfig) -> int:
    from .pointcloud import SceneSpec, generate_scene, write_cloud

    spec = SceneSpec(
        seed=cfg.seed if args.seed is None else args.seed,
        n_points=args.n,
        c_raw=args.c_raw,
        n_clusters=args.clusters,
        cluster_sigma=args.sigma,
        bev=cfg.bev(),
        z_min=cfg.z_min,
        z_max=cfg.z_max,
    )
    cloud = generate_scene(spec)
    write_cloud(cloud, args.out, binary=args.binary)
    kind = "rgpc" if args.binary else "csv"
    print(f"wrote {args.out} (n={len(cloud)}, c_raw={cloud.c_raw}, format={kind})")
    return 0


def cmd_encode(args, cfg: RunConfig) -> int:
    from .aggregation import init_weights
    from .pointcloud import read_cloud
    from .splat import encode, nonzero_pixels, pillar_scatter, write_feature_map, write_pgm

    if args.pgm and not 0 <= args.pgm_channel < cfg.c:  # before any file is written
        raise InvalidSpec(f"channel {args.pgm_channel} out of range 0..{cfg.c - 1}")
    cloud = read_cloud(args.cloud)
    seed = cfg.seed if args.seed is None else args.seed
    params = init_weights(
        seed, c_raw=cloud.c_raw, c=cfg.c, n_heads=cfg.n_heads, r=cfg.r, s_min=cfg.s_min
    )
    fmap = encode(cloud, params, cfg.bev(), cfg.raster_settings(), mem_cap=cfg.mem_cap)
    write_feature_map(fmap, args.out)
    print(f"wrote {args.out} (channels={fmap.channels}, h={cfg.h}, w={cfg.w})")
    dense_nz = nonzero_pixels(fmap)
    print(f"nonzero_pixels = {dense_nz}")
    if args.pgm:
        write_pgm(fmap, args.pgm_channel, args.pgm)
        print(f"wrote {args.pgm} (channel {args.pgm_channel})")
    if args.compare_pillar:
        pillar_nz = nonzero_pixels(pillar_scatter(cloud, cfg.bev()))
        print(f"pillar_nonzero = {pillar_nz}")
        ratio = dense_nz / pillar_nz if pillar_nz else float("inf")
        print(f"density_ratio = {_fmt(ratio)}")
    return 0


def _parse_n_list(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidSpec(f"--n expects comma-separated integers, got {text!r}") from None
    if not values or any(v < 0 for v in values):
        raise InvalidSpec(f"--n expects non-negative point counts, got {text!r}")
    return values


def cmd_bench_lfa(args, cfg: RunConfig) -> int:
    from .bench import format_report, report_to_csv, run_bench

    report = run_bench(
        _parse_n_list(args.n),
        c_raw=args.c_raw,
        c=cfg.c,
        r=cfg.r,
        reps=args.reps,
        seed=cfg.seed,
        mem_cap=cfg.mem_cap,
    )
    sys.stdout.write(format_report(report))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report_to_csv(report))
        print(f"wrote {args.csv}")
    if not report.gate_passed:
        print("error: benchmark correctness gate failed", file=sys.stderr)
        return 4
    return 0


def cmd_bgl(args, cfg: RunConfig) -> int:
    pred, _pred_classes = read_boxes(args.pred)
    gt, gt_classes = read_boxes(args.gt)
    mean, a, terms, grad = _pair_terms(pred, gt, gt_classes, cfg.bgl_config())
    print("index,a,mahalanobis,trace,logdet,total")
    worst = 0.0
    for i, row in enumerate(zip(a, *terms)):
        print(",".join([str(i), *map(_fmt, row)]))
        if not args.grad_check:
            continue
        # the dense oracle's 3x3 products overflow on boxes the kernel still handles
        try:
            with np.errstate(over="raise", invalid="raise"):
                numeric = fd_gradient(pred[i], gt[i], float(a[i]))
        except (FloatingPointError, OverflowError) as exc:
            raise InvalidSpec(f"box pair {i}: the dense gradient overflows ({exc})") from None
        for g, f in zip(_finite_gradient([d[i] for d in grad]), numeric):
            rel = abs(g - f) / max(1.0, abs(g))
            # a NaN would lose every comparison and pass; count it as a failure
            worst = max(worst, rel if math.isfinite(rel) else math.inf)
    print(f"mean_total = {_fmt(mean)}")
    if args.grad_check:
        print(f"grad_check_max_rel_err = {_fmt(worst)}")
        if worst > GRAD_CHECK_TOL:
            print(f"error: gradient check failed ({_fmt(worst)} > {_fmt(GRAD_CHECK_TOL)})",
                  file=sys.stderr)
            return 4
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest(print) else 4


def _add_config_options(parser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH", help="read key = value lines")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="apply a named BEV extent/resolution bundle")
    group.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key (repeatable)")
    group.add_argument("--dump-config", action="store_true",
                       help="print the merged configuration and exit")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rgk", description="radar Gaussian splatting toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="synthesize a clustered radar scene")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--n", required=True, type=int, help="number of points")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--c-raw", type=int, default=4, help="raw feature channels")
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--sigma", type=float, default=1.0, help="cluster spread in meters")
    p.add_argument("--binary", action="store_true", help="write RGPC instead of CSV")
    _add_config_options(p)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("encode", help="encode a point cloud into a BEV feature map")
    p.add_argument("--cloud", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH", help="RGFM output path")
    p.add_argument("--seed", type=int, default=None, help="weight seed")
    p.add_argument("--pgm", metavar="PATH", help="also export one channel as PGM")
    p.add_argument("--pgm-channel", type=int, default=0)
    p.add_argument("--compare-pillar", action="store_true",
                   help="report the pillar-scatter baseline density")
    _add_config_options(p)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("bench-lfa", help="benchmark the aggregation implementations")
    p.add_argument("--n", default="1000", metavar="N[,N...]",
                   help="comma-separated point counts")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--c-raw", type=int, default=4)
    p.add_argument("--csv", metavar="PATH", help="also write the rows as CSV")
    _add_config_options(p)
    p.set_defaults(handler=cmd_bench_lfa)

    p = sub.add_parser("bgl", help="box-pair divergence report")
    p.add_argument("--pred", required=True, metavar="PATH")
    p.add_argument("--gt", required=True, metavar="PATH")
    p.add_argument("--grad-check", action="store_true",
                   help="verify analytic gradients against finite differences")
    _add_config_options(p)
    p.set_defaults(handler=cmd_bgl)

    p = sub.add_parser("selftest", help="run the check battery")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        if "dump_config" not in args:  # selftest takes no configuration
            return args.handler(args)
        cfg = _merge_config(args)
        if args.dump_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        return args.handler(args, cfg)
    except (FormatError, InvalidSpec, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RgkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
