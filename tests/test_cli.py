"""Command-line interface: exit codes, configuration precedence, output
determinism, and the config dump round trip."""

import contextlib
import dataclasses
import io
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rgkit
from rgkit import boxloss
from rgkit.boxloss import (DEFAULT_A_PER_CLASS, BglConfig, Box3D, bgl, box_to_gaussian,
                           kl_divergence, write_boxes)
from rgkit.cli import main
from rgkit.config import RunConfig, apply_preset, apply_updates, dump_config, parse_config_text
from rgkit.errors import InvalidSpec
from rgkit.pointcloud import DEFAULT_RANGE, read_cloud
from rgkit.splat import RasterSettings, read_feature_map


def _write_box_pair(tmp_path):
    pred = [Box3D(1.0, 2.0, 0.5, 4.2, 1.9, 1.6, 0.3), Box3D(-3.0, 1.0, 0.2, 0.8, 0.7, 1.8, 1.2)]
    gt = [Box3D(1.1, 2.1, 0.4, 4.0, 1.8, 1.5, 0.25), Box3D(-3.1, 0.9, 0.3, 0.7, 0.6, 1.7, 1.1)]
    write_boxes(pred, tmp_path / "pred.csv", classes=["car", "pedestrian"])
    write_boxes(gt, tmp_path / "gt.csv", classes=["car", "pedestrian"])
    return tmp_path / "pred.csv", tmp_path / "gt.csv"


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_cloud(tmp_path, capsys):
    out = tmp_path / "scene.csv"
    assert main(["generate", "--out", str(out), "--n", "50", "--seed", "3"]) == 0
    assert "n=50" in capsys.readouterr().out
    cloud = read_cloud(out)
    assert len(cloud) == 50 and cloud.c_raw == 4


def test_generate_binary_equals_text_content(tmp_path):
    text, binary = tmp_path / "a.csv", tmp_path / "a.rgpc"
    assert main(["generate", "--out", str(text), "--n", "30", "--seed", "9"]) == 0
    assert main(["generate", "--out", str(binary), "--n", "30", "--seed", "9",
                 "--binary"]) == 0
    assert read_cloud(text) == read_cloud(binary)


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.rgpc", tmp_path / "b.rgpc"
    for path in (a, b):
        assert main(["generate", "--out", str(path), "--n", "64", "--seed", "5",
                     "--binary"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_respects_preset_extents(tmp_path):
    out = tmp_path / "scene.rgpc"
    assert main(["generate", "--out", str(out), "--n", "400", "--seed", "1",
                 "--preset", "tj4d", "--binary"]) == 0
    cloud = read_cloud(out)
    assert np.all(cloud.positions[:, 0] <= 69.12)
    assert np.all(cloud.positions[:, 1] >= -39.68)
    assert np.all(cloud.positions[:, 2] >= -4.0)
    assert np.max(cloud.positions[:, 1]) > 25.6 or np.max(cloud.positions[:, 0]) > 51.2


@pytest.mark.parametrize("args", [
    ["generate", "--n", "10", "--c-raw", "100000000000"],  # 7.28 TiB of uniforms
    ["generate", "--n", "10", "--clusters", "100000000000"],  # 2.18 TiB
    ["generate", "--n", "3000000000"],  # 246 GiB
    ["generate", "--n", "0", "--c-raw", "9223372036854775800", "--binary"],
    ["bench-lfa", "--n", "20,3000000000"],
])
def test_scene_draws_beyond_the_draw_cap_exit_3(tmp_path, capsys, args):
    # the draws were made unbounded and died with a raw MemoryError, exit 1
    out = tmp_path / "scene.csv"
    assert main(args + (["--out", str(out)] if args[0] == "generate" else [])) == 3
    err = capsys.readouterr().err
    assert "error: AllocationLimit: scene draws" in err and "cap is 1073741824" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# encode


@pytest.fixture()
def small_cloud(tmp_path):
    path = tmp_path / "cloud.rgpc"
    assert main(["generate", "--out", str(path), "--n", "80", "--seed", "11",
                 "--binary"]) == 0
    return path


def test_encode_writes_map_and_pgm(tmp_path, small_cloud, capsys):
    out = tmp_path / "map.rgfm"
    pgm = tmp_path / "map.pgm"
    code = main(["encode", "--cloud", str(small_cloud), "--out", str(out),
                 "--pgm", str(pgm), "--compare-pillar", "--set", "c=16",
                 "--set", "h=64", "--set", "w=64"])
    assert code == 0
    text = capsys.readouterr().out
    assert "nonzero_pixels = " in text and "density_ratio = " in text
    fmap = read_feature_map(out)
    assert fmap.data.shape == (16, 64, 64)
    assert pgm.read_bytes().startswith(b"P5\n64 64\n255\n")


@pytest.mark.parametrize("r", ["1e-200", "1e200"])
def test_radius_whose_square_leaves_float64_exits_2(tmp_path, small_cloud, capsys, r):
    # r=1e-200 squares to 0, so no point was its own neighbour and the
    # segment mean died with a raw IndexError
    code = main(["encode", "--cloud", str(small_cloud), "--out", str(tmp_path / "m.rgfm"),
                 "--set", f"r={r}"])
    assert code == 2
    assert "InvalidSpec" in capsys.readouterr().err


def test_encode_deterministic_across_runs(tmp_path, small_cloud):
    outs = [tmp_path / f"m{i}.rgfm" for i in range(3)]
    shrink = ["--set", "c=16", "--set", "h=64", "--set", "w=64"]
    for out in outs:
        assert main(["encode", "--cloud", str(small_cloud), "--out", str(out),
                     *shrink]) == 0
    blobs = [p.read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_encode_bytes_independent_of_blas_threads(tmp_path):
    # one tight cluster puts hundreds of splats into one tile; blending them
    # with a BLAS matmul gives different bytes under one and two BLAS threads
    cloud = tmp_path / "dense.rgpc"
    assert main(["generate", "--out", str(cloud), "--n", "500", "--seed", "11",
                 "--clusters", "1", "--sigma", "0.3", "--binary"]) == 0
    src = str(Path(rgkit.__file__).resolve().parents[1])
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"m{threads}.rgfm"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "rgkit.cli", "encode", "--cloud", str(cloud),
                        "--out", str(out), "--set", "c=16", "--set", "h=64", "--set", "w=64"],
                       env=env, check=True, capture_output=True)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_encode_has_no_threads_option(tmp_path, small_cloud, capsys):
    assert main(["encode", "--cloud", str(small_cloud), "--out",
                 str(tmp_path / "m.rgfm"), "--threads", "2"]) == 1
    assert main(["encode", "--cloud", str(small_cloud), "--out",
                 str(tmp_path / "m.rgfm"), "--dump-config"]) == 0
    assert "threads" not in capsys.readouterr().out


def _write_csv_cloud(path, rows, c_raw=1):
    path.write_text(f"# c_raw={c_raw}\n" + "".join(f"{row}\n" for row in rows))
    return path


@pytest.mark.parametrize("bad", ["nan,0,0,1", "inf,0,0,1", "0,-inf,0,1", "0,0,0,nan"])
def test_encode_non_finite_row_exits_2(tmp_path, capsys, bad):
    cloud = _write_csv_cloud(tmp_path / "bad.csv", ["1,1,0,1", bad])
    assert main(["encode", "--cloud", str(cloud), "--out", str(tmp_path / "m.rgfm"),
                 "--set", "c=8", "--set", "h=32", "--set", "w=32"]) == 2
    assert "error: InvalidSpec" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["s_min=nan", "lambda_blur=nan", "t_min=nan", "t_min=2",
                                     "s_min=inf", "lambda_blur=inf"])
def test_encode_out_of_range_setting_exits_2(tmp_path, small_cloud, capsys, setting):
    assert main(["encode", "--cloud", str(small_cloud), "--out", str(tmp_path / "m.rgfm"),
                 "--set", "c=16", "--set", "h=64", "--set", "w=64", "--set", setting]) == 2
    assert "error: InvalidSpec" in capsys.readouterr().err


def test_encode_negative_t_min_turns_the_early_stop_off(tmp_path, small_cloud):
    # -1e300 overflowed the float32 cast of t_min: exit 2 with InvalidSpec
    args = ["encode", "--cloud", str(small_cloud), "--set", "c=8", "--set", "h=32",
            "--set", "w=32"]
    off, neg = tmp_path / "off.rgfm", tmp_path / "neg.rgfm"
    assert main([*args, "--out", str(off), "--set", "t_min=0"]) == 0
    assert main([*args, "--out", str(neg), "--set", "t_min=-1e300"]) == 0
    assert neg.read_bytes() == off.read_bytes()


def test_encode_infinite_extent_span_exits_2(tmp_path, capsys):
    # x_max - x_min overflows to inf, so px_per_m_x was 0 and every splat sat on
    # the map's edge: exit 0 with a degenerate map
    cloud = _write_csv_cloud(tmp_path / "two.csv", ["1,1,0,1", "2,-1,0,1"])
    out = tmp_path / "m.rgfm"
    assert main(["encode", "--cloud", str(cloud), "--out", str(out), "--set", "x_min=-1e308",
                 "--set", "x_max=1e308", "--set", "h=8", "--set", "w=8", "--set", "c=4"]) == 2
    assert "error: InvalidSpec" in capsys.readouterr().err and not out.exists()


def test_encode_huge_coordinate_is_culled(tmp_path):
    # at 6.25 px per meter the far point projects to an infinite pixel position
    cloud = _write_csv_cloud(tmp_path / "far.csv", ["1,1,0,1", "1e308,0,0,1"])
    out = tmp_path / "m.rgfm"
    assert main(["encode", "--cloud", str(cloud), "--out", str(out), "--set", "c=8"]) == 0
    assert np.all(np.isfinite(read_feature_map(out).data))


def test_encode_mem_cap_too_small_for_one_attention_row_exits_3(tmp_path, small_cloud, capsys):
    # mem_cap used to bind only the broadcast LFA, so encode ignored it and exited 0
    out = tmp_path / "m.rgfm"
    assert main(["encode", "--cloud", str(small_cloud), "--out", str(out),
                 "--set", "c=16", "--set", "h=64", "--set", "w=64", "--set", "mem_cap=0"]) == 3
    assert "error: AllocationLimit" in capsys.readouterr().err and not out.exists()
    # one score row of the 80 points is 640 bytes
    assert main(["encode", "--cloud", str(small_cloud), "--out", str(out),
                 "--set", "c=16", "--set", "h=64", "--set", "w=64", "--set", "mem_cap=640"]) == 0


def test_encode_mem_cap_too_small_for_the_neighbour_pairs_exits_3(tmp_path, capsys):
    # 800 coincident points are 640 000 neighbour pairs (~62 MB of LFA
    # buffers); mem_cap used not to bound them, and encode exited 0
    cloud = _write_csv_cloud(tmp_path / "same.csv", ["1,2,0,1"] * 800)
    out = tmp_path / "m.rgfm"
    assert main(["encode", "--cloud", str(cloud), "--out", str(out), "--set", "c=8",
                 "--set", "h=32", "--set", "w=32", "--set", "mem_cap=12000"]) == 3
    err = capsys.readouterr().err
    assert "error: AllocationLimit" in err and "neighbour" in err and not out.exists()


def test_encode_mem_cap_too_small_for_one_tile_candidate_exits_3(tmp_path, capsys):
    # binning's (splat, tile) candidates are ~300 bytes each; mem_cap used
    # not to bound them, and encode exited 0 below one of them
    cloud = tmp_path / "c20.csv"
    assert main(["generate", "--out", str(cloud), "--n", "20", "--seed", "3"]) == 0
    out = tmp_path / "m.rgfm"
    args = ["encode", "--cloud", str(cloud), "--out", str(out), "--set", "c=8",
            "--set", "h=64", "--set", "w=64"]
    assert main(args + ["--set", "mem_cap=200"]) == 3  # one attention row is 160 bytes
    err = capsys.readouterr().err
    assert "error: AllocationLimit" in err and "(splat, tile) candidates" in err
    assert not out.exists()
    assert main(args + ["--set", "mem_cap=400"]) == 0


def test_encode_map_beyond_the_map_cap_exits_3(tmp_path, small_cloud, capsys):
    # the 64 x 100000 x 100000 float32 map is 2.33 TiB: np.zeros raised a raw
    # MemoryError, exit 1; its size is now checked before any tile is binned
    out = tmp_path / "m.rgfm"
    assert main(["encode", "--cloud", str(small_cloud), "--out", str(out),
                 "--set", "h=100000", "--set", "w=100000"]) == 3
    err = capsys.readouterr().err
    assert "error: AllocationLimit: a 64 x 100000 x 100000 float32 map" in err
    assert "cap is 1073741824" in err and not out.exists()


@pytest.mark.parametrize("tile_size", ["64", "100000", str(2 ** 40), str(2 ** 64)])
def test_encode_tile_larger_than_the_map_is_one_tile(tmp_path, small_cloud, tile_size):
    # per-pixel buffers were sized tile_size^2 per splat (a raw MemoryError or
    # ValueError), and past 2^63 the tile origins overflowed int64
    args = ["encode", "--cloud", str(small_cloud), "--set", "c=8", "--set", "h=16",
            "--set", "w=16"]
    one, big = tmp_path / "one.rgfm", tmp_path / "big.rgfm"
    assert main([*args, "--out", str(one), "--set", "tile_size=16"]) == 0
    assert main([*args, "--out", str(big), "--set", f"tile_size={tile_size}"]) == 0
    assert big.read_bytes() == one.read_bytes()


def test_encode_blend_buffers_beyond_mem_cap_exit_3(tmp_path, small_cloud, capsys):
    # one 64 x 64 tile holds all 80 splats: 80 * 17 = 1360 bytes of blend
    # buffers a pixel.  Only the fixed 1 GiB map cap used to bound them, and
    # encode exited 0; every other stage fits 1000 bytes (a score row is 640)
    out = tmp_path / "m.rgfm"
    args = ["encode", "--cloud", str(small_cloud), "--out", str(out), "--set", "c=16",
            "--set", "h=64", "--set", "w=64", "--set", "tile_size=64"]
    assert main(args + ["--set", "mem_cap=1000"]) == 3
    err = capsys.readouterr().err
    assert "error: AllocationLimit: one pixel's blend buffers in a tile of 80 splats need 1360 " \
           "bytes, cap is 1000" in err
    assert not out.exists()
    assert main(args) == 0
    want = out.read_bytes()
    assert main(args + ["--set", "mem_cap=1360"]) == 0  # one-pixel blend groups
    assert out.read_bytes() == want


def test_encode_zero_raw_channels_exits_2(tmp_path, capsys):
    cloud = tmp_path / "c0.csv"
    assert main(["generate", "--out", str(cloud), "--n", "20", "--c-raw", "0"]) == 0
    assert main(["encode", "--cloud", str(cloud), "--out", str(tmp_path / "m.rgfm"),
                 "--set", "c=8", "--set", "h=32", "--set", "w=32"]) == 2
    assert "c_raw" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration plumbing


def test_dump_config_round_trips(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("r = 0.5\na_default = 0.25\na_bus = 2.0\n# comment\n")
    code = main(["generate", "--out", "ignored", "--n", "1", "--config",
                 str(cfg_file), "--set", "seed=9", "--dump-config"])
    assert code == 0
    text = capsys.readouterr().out
    parsed = apply_updates(RunConfig(), parse_config_text(text))
    assert parsed.r == 0.5 and parsed.a_default == 0.25 and parsed.seed == 9
    assert parsed.a_per_class["bus"] == 2.0
    assert dump_config(parsed) == text  # dump of the parse is bit-identical


# for each command that takes the configuration options: its required
# options and the options that write files; no path names an existing file
_COMMAND_ARGS = {
    "generate": ["--out", "scene.csv", "--n", "10", "--binary"],
    "encode": ["--cloud", "scene.csv", "--out", "map.rgfm", "--pgm", "map.pgm"],
    "bench-lfa": ["--n", "10", "--csv", "bench.csv"],
    "bgl": ["--pred", "pred.csv", "--gt", "gt.csv", "--grad-check"],
}


@pytest.mark.parametrize("command", _COMMAND_ARGS)
def test_every_configured_command_dumps_the_same_config_and_does_no_work(
        command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    items = {"seed": "9", "a_bus": "2"}
    sets = [arg for key, value in items.items() for arg in ("--set", f"{key}={value}")]
    want = dump_config(apply_updates(apply_preset(RunConfig(), "tj4d"), items))
    assert main([command, *_COMMAND_ARGS[command], "--preset", "tj4d", *sets,
                 "--dump-config"]) == 0
    assert capsys.readouterr().out == want
    assert not list(tmp_path.iterdir())
    # selftest takes no configuration options
    assert main(["selftest", "--dump-config"]) == 1
    assert "unrecognized arguments: --dump-config" in capsys.readouterr().err


def test_precedence_file_then_preset_then_set_then_flag(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("x_max = 10.0\nh = 100\nseed = 4\n")
    code = main(["generate", "--out", "ignored", "--n", "1",
                 "--config", str(cfg_file), "--preset", "vod",
                 "--set", "h=222", "--seed", "7", "--dump-config"])
    assert code == 0
    text = capsys.readouterr().out
    parsed = apply_updates(RunConfig(), parse_config_text(text))
    assert parsed.x_max == 51.2  # preset overrides the file
    assert parsed.h == 222  # --set overrides the preset
    # --seed is applied by the command itself, after --dump-config output;
    # the merged config keeps the file value
    assert parsed.seed == 4


def test_unknown_config_key_fails(tmp_path, capsys):
    # older dumps carry a ``lambda`` line, which no command read
    for key in ("bogus", "lambda"):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{key} = 1\n")
        assert main(["generate", "--out", "x", "--n", "1", "--config",
                     str(cfg_file)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert main(["generate", "--out", "x", "--n", "1", "--set", f"{key}=1"]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    # it died with a raw UnicodeDecodeError, exit 1
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"r = 1\n\xff")
    assert main(["generate", "--out", "x", "--n", "10", "--config", str(cfg_file)]) == 2
    assert "FormatError" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["a_default=inf", "a_car=inf", "a_default=-inf"])
def test_infinite_box_sharpness_exits_2(item, capsys):
    # it was accepted until a loss was evaluated
    assert main(["bgl", "--pred", "p", "--gt", "g", "--set", item, "--dump-config"]) == 2
    assert "every a must be finite and > 0" in capsys.readouterr().err


def test_config_defaults_are_the_owning_definitions():
    assert RunConfig().raster_settings() == RasterSettings()
    assert RunConfig().bev() == DEFAULT_RANGE
    assert RunConfig().bgl_config() == BglConfig(dict(DEFAULT_A_PER_CLASS))
    assert apply_preset(RunConfig(), "vod") == RunConfig()
    # every field reaches its view, not only the defaults
    cfg = RunConfig(x_min=-1.0, x_max=9.0, y_min=-2.0, y_max=8.0, h=7, w=9, alpha_max=0.5,
                    alpha_min=0.25, t_min=0.125, lambda_blur=0.75, tile_size=4,
                    blend_order="index")
    for view, default in ((cfg.bev(), DEFAULT_RANGE), (cfg.raster_settings(), RasterSettings())):
        for f in dataclasses.fields(view):
            assert getattr(view, f.name) == getattr(cfg, f.name) != getattr(default, f.name)


def test_every_dumped_key_round_trips_through_set(capsys):
    cfg = RunConfig(seed=5, r=0.5, c=32, n_heads=4, mem_cap=2**20, h=100, w=120,
                    alpha_min=0.01, tile_size=8, blend_order="index", a_default=0.5)
    cfg.a_per_class["bus"] = 2.5
    text = dump_config(cfg)
    sets = [arg for line in text.splitlines() for arg in ("--set", line.replace(" = ", "="))]
    assert main(["generate", "--out", "x", "--n", "1", *sets, "--dump-config"]) == 0
    assert capsys.readouterr().out == text
    parsed = apply_updates(RunConfig(), parse_config_text(text))
    assert parsed == cfg
    for f in dataclasses.fields(RunConfig):
        assert type(getattr(parsed, f.name)) is type(getattr(RunConfig(), f.name)), f.name
    assert parsed.blend_order == "index" and type(parsed.a_per_class["bus"]) is float
    # an int key takes no float text
    assert main(["generate", "--out", "x", "--n", "1", "--set", "tile_size=8.0"]) == 2
    assert "config key 'tile_size': bad value '8.0'" in capsys.readouterr().err


def test_malformed_set_fails(capsys):
    assert main(["generate", "--out", "x", "--n", "1", "--set", "r0.5"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["a_x\ny", "a_x\ry", "a_x\x85y", "a_x\u2028y", "a_x ", "a_x=y",
                                 "a_\udcff"])
def test_class_name_a_config_line_cannot_hold_exits_2(key, capsys):
    # --dump-config wrote such a class as a line that parsed back to another
    # config or failed to parse; a lone surrogate (what undecodable argv bytes
    # give) raised UnicodeEncodeError with a traceback on a UTF-8 stdout
    with pytest.raises(InvalidSpec, match="class name"):
        apply_updates(RunConfig(), {key: "1"})
    if key != key.strip() or "=" in key:
        return  # --set strips the key and splits at the first '='
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = main(["bgl", "--pred", "p", "--gt", "g", f"--set={key}=1", "--dump-config"])
    assert code == 2
    assert "class name" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_small_run(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert main(["bench-lfa", "--n", "20,50", "--reps", "2", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "traversal" in out and "index_scatter" in out
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("name,n,reps")
    assert len(lines) == 1 + 6  # three implementations at two sizes


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_bench_rejects_fewer_than_one_rep(reps, capsys):
    assert main(["bench-lfa", "--n", "20", "--reps", reps]) == 2
    assert capsys.readouterr().err == f"error: InvalidSpec: reps must be >= 1, got {reps}\n"


# ---------------------------------------------------------------------------
# bgl


def test_bgl_report_and_grad_check(tmp_path, capsys):
    pred, gt = _write_box_pair(tmp_path)
    assert main(["bgl", "--pred", str(pred), "--gt", str(gt), "--grad-check"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "index,a,mahalanobis,trace,logdet,total"
    assert len([l for l in lines if l[0].isdigit()]) == 2
    assert any(l.startswith("mean_total = ") for l in lines)
    assert any(l.startswith("grad_check_max_rel_err = ") for l in lines)


def test_bgl_deterministic_output(tmp_path, capsys):
    pred, gt = _write_box_pair(tmp_path)
    assert main(["bgl", "--pred", str(pred), "--gt", str(gt)]) == 0
    first = capsys.readouterr().out
    assert main(["bgl", "--pred", str(pred), "--gt", str(gt)]) == 0
    assert capsys.readouterr().out == first


def test_bgl_length_mismatch_exits_3(tmp_path, capsys):
    pred, gt = _write_box_pair(tmp_path)
    solo = tmp_path / "solo.csv"
    write_boxes([Box3D(0, 0, 0, 1, 1, 1, 0)], solo)
    assert main(["bgl", "--pred", str(pred), "--gt", str(solo)]) == 3
    assert "LengthMismatch" in capsys.readouterr().err


def _write_single_pair(tmp_path, pred, gt):
    write_boxes([pred], tmp_path / "p.csv")
    write_boxes([gt], tmp_path / "g.csv")
    return ["bgl", "--pred", str(tmp_path / "p.csv"), "--gt", str(tmp_path / "g.csv")]


@pytest.mark.parametrize("side", ["pred", "gt"])
def test_bgl_box_with_overflowing_axis_variance_exits_2(tmp_path, capsys, side):
    unit, huge = Box3D(0, 0, 0, 1, 1, 1, 0), Box3D(0, 0, 0, 1e308, 1, 1, 0)
    pair = (huge, unit) if side == "pred" else (unit, huge)
    assert main([*_write_single_pair(tmp_path, *pair), "--grad-check"]) == 2
    captured = capsys.readouterr()
    assert "InvalidSpec" in captured.err and "nan" not in captured.out


def test_bgl_makes_one_kernel_call_and_no_dense_call_but_the_gradient_check(
        tmp_path, capsys, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(boxloss, "_kl_and_gradient",
                        counted("kernel", boxloss._kl_and_gradient))
    for name in ("box_to_gaussian", "kl_divergence"):
        dense = counted("dense", getattr(boxloss, name))
        monkeypatch.setattr(boxloss, name, dense)
        monkeypatch.setattr(f"rgkit.cli.{name}", dense, raising=False)
    monkeypatch.setattr("rgkit.cli.fd_gradient", counted("fd", boxloss.fd_gradient))
    pred, gt = _write_box_pair(tmp_path)
    assert main(["bgl", "--pred", str(pred), "--gt", str(gt)]) == 0
    assert calls == ["kernel"]
    calls.clear()
    assert main(["bgl", "--pred", str(pred), "--gt", str(gt), "--grad-check"]) == 0
    # the dense calls come from inside fd_gradient, once per pair
    assert calls[:2] == ["kernel", "fd"] and calls.count("fd") == 2
    assert calls.count("kernel") == 1 and set(calls[2:]) == {"fd", "dense"}


def test_bgl_rows_are_the_dense_terms(tmp_path, capsys):
    rng = np.random.default_rng(5)
    classes = list(rng.choice(["car", "pedestrian", "bus"], 40))

    def box():
        return Box3D(*rng.normal(size=3) * 5, *rng.uniform(0.3, 6.0, 3), rng.uniform(-7, 7))

    pred, gt = [box() for _ in classes], [box() for _ in classes]
    write_boxes(pred, tmp_path / "p.csv", classes=classes)
    write_boxes(gt, tmp_path / "g.csv", classes=classes)
    assert main(["bgl", "--pred", str(tmp_path / "p.csv"), "--gt", str(tmp_path / "g.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = RunConfig().bgl_config()
    assert len(lines) == len(pred) + 2
    for i, (line, p, t, c) in enumerate(zip(lines[1:], pred, gt, classes)):
        index, a, *terms = line.split(",")
        assert int(index) == i and float(a) == cfg.a_for(c)
        want = kl_divergence(box_to_gaussian(p, float(a)), box_to_gaussian(t, float(a)))
        for got, value in zip(terms, (want.mahalanobis, want.trace, want.logdet, want.total)):
            assert math.isclose(float(got), value, rel_tol=1e-8)
    assert lines[-1] == f"mean_total = {format(bgl(pred, gt, classes, cfg), '.9g')}"


def test_bgl_report_of_a_box_too_large_for_the_dense_terms_exits_0(tmp_path, capsys):
    # the report used to recompute each pair's terms through the dense 3x3
    # products, which overflow on a yawed 1e100 m box the kernel scores: exit 2
    huge = Box3D(0, 0, 0, 1e100, 1, 1, 0.785)
    assert main(_write_single_pair(tmp_path, huge, huge)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["0,1,0,3,0,0", "mean_total = 0"]


def test_bgl_box_too_large_for_the_dense_report_exits_2(tmp_path, capsys):
    # the kernel handles a yawed 1e100 m box; with --grad-check fd_gradient's
    # dense 3x3 products overflow, which used to print nan and exit 0
    huge = Box3D(0, 0, 0, 1e100, 1, 1, 0.785)
    assert main([*_write_single_pair(tmp_path, huge, huge), "--grad-check"]) == 2
    captured = capsys.readouterr()
    assert "InvalidSpec" in captured.err and "nan" not in captured.out


def test_bgl_singular_target_exits_3(tmp_path, capsys):
    cube = Box3D(0, 0, 0, 0.01, 0.01, 0.01, 0)  # det (0.005^2)^3 at a=1
    assert main(_write_single_pair(tmp_path, Box3D(0, 0, 0, 1, 1, 1, 0), cube)) == 3
    assert "SingularCovariance" in capsys.readouterr().err


def test_bgl_grad_check_counts_nan_as_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rgkit.cli.fd_gradient", lambda p, t, a: np.full(7, np.nan))
    pred, gt = _write_box_pair(tmp_path)
    assert main(["bgl", "--pred", str(pred), "--gt", str(gt), "--grad-check"]) == 4
    captured = capsys.readouterr()
    assert "grad_check_max_rel_err = inf" in captured.out
    assert "gradient check failed" in captured.err


def test_bgl_loads_no_scipy_module(tmp_path):
    # no runtime module imports SciPy, and neither --dump-config nor rgk bgl
    # loads an encoder module: a loss-only process must not pay their import
    pred, gt = _write_box_pair(tmp_path)
    report = ("print('loaded', code, *sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('scipy', 'rgkit')))")
    code = ("import sys; from rgkit.cli import main; "
            "code = main(['encode', '--cloud', 'c', '--out', 'm', '--preset', 'tj4d', "
            f"'--dump-config']); {report}; "
            f"code = main(['bgl', '--pred', {str(pred)!r}, '--gt', {str(gt)!r}, '--grad-check']); "
            f"{report}")
    src = str(Path(rgkit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True)
    reports = [line.split()[1:] for line in out.stdout.splitlines() if line.startswith("loaded ")]
    encoder = {f"rgkit.{name}" for name in
               ("aggregation", "splat", "pointcloud", "special", "rng", "bench", "selftest")}
    assert len(reports) == 2
    for status, *modules in reports:
        assert status == "0" and "rgkit.config" in modules
        assert not [m for m in modules if m.split(".")[0] == "scipy" or m in encoder], modules


def test_bgl_non_utf8_box_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x,y,z,l,w,h,theta\n\xff\xfe,1\n")
    assert main(["bgl", "--pred", str(bad), "--gt", str(bad)]) == 2
    assert "FormatError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes and selftest


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["generate"]) == 1  # missing required flags
    assert main(["generate", "--out", "x", "--n", "notanumber"]) == 1
    assert "error: usage:" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["encode", "--cloud", str(tmp_path / "nope.rgpc"), "--out",
                 str(tmp_path / "m.rgfm")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_cloud_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a cloud\n")
    assert main(["encode", "--cloud", str(bad), "--out",
                 str(tmp_path / "m.rgfm")]) == 2
    assert "FormatError" in capsys.readouterr().err


def test_encode_channel_count_beyond_an_array_dimension_exits_2(tmp_path, capsys):
    cloud = tmp_path / "wide.csv"
    cloud.write_text("# c_raw=99999999999999999999\n")
    assert main(["encode", "--cloud", str(cloud), "--out", str(tmp_path / "m.rgfm")]) == 2
    assert "FormatError: channel count 99999999999999999999" in capsys.readouterr().err


@pytest.mark.parametrize("name, blob", [
    ("wide.csv", b"# c_raw=100000000000\n"),
    ("wide.rgpc", b"RGPC" + struct.pack("<III", 1, 0, 4_000_000_000)),
])
def test_encode_weights_beyond_the_weight_cap_exit_3(tmp_path, capsys, name, blob):
    # an empty cloud with terabytes of weights: their size is checked before drawing them
    cloud = tmp_path / name
    cloud.write_bytes(blob)
    assert main(["encode", "--cloud", str(cloud), "--out", str(tmp_path / "m.rgfm")]) == 3
    err = capsys.readouterr().err
    assert "AllocationLimit: weights for c_raw=" in err and "cap is 1073741824" in err


def test_encode_features_that_overflow_the_layer_norm_exit_2(tmp_path, capsys):
    # a raw feature of 1e300 squares to inf in the attention's layer norm; the
    # RuntimeWarnings leaked and encode went on to an unrelated error
    cloud = _write_csv_cloud(tmp_path / "loud.csv", ["0,0,0,1e300", "1,1,0,1"])
    assert main(["encode", "--cloud", str(cloud), "--out", str(tmp_path / "m.rgfm"),
                 "--set", "c=8"]) == 2
    assert "InvalidSpec: encoding overflows float64" in capsys.readouterr().err


#: ``rgk`` in a fresh interpreter in which ``import scipy`` fails
_RGK_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from rgkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_encode_runs_without_scipy_and_writes_the_scipy_gelu_bytes(tmp_path, monkeypatch):
    special = pytest.importorskip("scipy.special")
    cloud = tmp_path / "frame.csv"
    assert main(["generate", "--out", str(cloud), "--n", "600", "--seed", "21", "--clusters", "2",
                 "--sigma", "0.5", "--preset", "tj4d"]) == 0
    args = ["encode", "--cloud", str(cloud), "--preset", "tj4d"]
    src = str(Path(rgkit.__file__).resolve().parents[1])
    ran = subprocess.run([sys.executable, "-c", _RGK_WITHOUT_SCIPY, *args, "--out",
                          str(tmp_path / "port.rgfm")],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr
    # the reference: the same command with gelu written over scipy.special.erf
    monkeypatch.setattr("rgkit.aggregation.gelu",
                        lambda x: 0.5 * x * (1.0 + special.erf(x / math.sqrt(2.0))))
    assert main([*args, "--out", str(tmp_path / "scipy.rgfm")]) == 0
    assert (tmp_path / "port.rgfm").read_bytes() == (tmp_path / "scipy.rgfm").read_bytes()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0  # argparse SystemExit is mapped to a return
    assert "usage: rgk" in capsys.readouterr().out


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
