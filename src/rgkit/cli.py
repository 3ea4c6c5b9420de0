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
then specific flags such as ``--seed``.  ``--dump-config`` prints the
merged configuration and exits without doing work.

Exit codes: 0 success; 1 usage error; 2 malformed input or I/O failure;
3 numerical or shape failure; 4 a gate or check reported a failure.
Errors print a single ``error: <Type>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .aggregation import init_weights
from .bench import format_report, report_to_csv, run_bench
from .boxloss import bgl, bgl_gradient, box_to_gaussian, fd_gradient, kl_divergence, read_boxes
from .config import (
    PRESETS,
    RunConfig,
    apply_preset,
    apply_updates,
    dump_config,
    load_config,
)
from .errors import FormatError, InvalidSpec, RgkError
from .pointcloud import SceneSpec, generate_scene, read_cloud, write_cloud
from .splat import (
    encode,
    nonzero_pixels,
    pillar_scatter,
    write_feature_map,
    write_pgm,
)

#: Largest tolerated relative error in the runtime gradient check.
GRAD_CHECK_TOL = 1e-4


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


def _maybe_dump(args, cfg: RunConfig) -> bool:
    if args.dump_config:
        sys.stdout.write(dump_config(cfg))
        return True
    return False


def cmd_generate(args) -> int:
    cfg = _merge_config(args)
    if _maybe_dump(args, cfg):
        return 0
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


def cmd_encode(args) -> int:
    cfg = _merge_config(args)
    if _maybe_dump(args, cfg):
        return 0
    cloud = read_cloud(args.cloud)
    seed = cfg.seed if args.seed is None else args.seed
    params = init_weights(
        seed, c_raw=cloud.c_raw, c=cfg.c, n_heads=cfg.n_heads, r=cfg.r, s_min=cfg.s_min
    )
    fmap = encode(cloud, params, cfg.bev(), cfg.raster_settings())
    write_feature_map(fmap, args.out)
    print(f"wrote {args.out} (channels={fmap.channels}, h={cfg.h}, w={cfg.w})")
    print(f"nonzero_pixels = {nonzero_pixels(fmap)}")
    if args.pgm:
        write_pgm(fmap, args.pgm_channel, args.pgm)
        print(f"wrote {args.pgm} (channel {args.pgm_channel})")
    if args.compare_pillar:
        pillar_nz = nonzero_pixels(pillar_scatter(cloud, cfg.bev()))
        dense_nz = nonzero_pixels(fmap)
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


def cmd_bench_lfa(args) -> int:
    cfg = _merge_config(args)
    if _maybe_dump(args, cfg):
        return 0
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


def cmd_bgl(args) -> int:
    cfg = _merge_config(args)
    if _maybe_dump(args, cfg):
        return 0
    pred, _pred_classes = read_boxes(args.pred)
    gt, gt_classes = read_boxes(args.gt)
    bcfg = cfg.bgl_config()
    mean = bgl(pred, gt, gt_classes, bcfg)
    print("index,a,mahalanobis,trace,logdet,total")
    for i, (p, t) in enumerate(zip(pred, gt)):
        a = bcfg.a_for(gt_classes[i] if gt_classes is not None else None)
        comp = kl_divergence(box_to_gaussian(p, a), box_to_gaussian(t, a))
        print(f"{i},{_fmt(a)},{_fmt(comp.mahalanobis)},{_fmt(comp.trace)},"
              f"{_fmt(comp.logdet)},{_fmt(comp.total)}")
    print(f"mean_total = {_fmt(mean)}")
    if args.grad_check:
        worst = 0.0
        for i, (p, t) in enumerate(zip(pred, gt)):
            a = bcfg.a_for(gt_classes[i] if gt_classes is not None else None)
            analytic = bgl_gradient(p, t, a)
            numeric = fd_gradient(p, t, a)
            for g, f in zip(analytic, numeric):
                rel = abs(g - f) / max(1.0, abs(g))
                worst = max(worst, rel)
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
        return args.handler(args)
    except (FormatError, InvalidSpec, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RgkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
