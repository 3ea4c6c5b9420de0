"""Command-line interface: exit codes, configuration precedence, output
determinism, and the config dump round trip."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rgkit
from rgkit.boxloss import Box3D, write_boxes
from rgkit.cli import main
from rgkit.config import RunConfig, apply_updates, dump_config, parse_config_text
from rgkit.pointcloud import read_cloud
from rgkit.splat import read_feature_map


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


def test_encode_huge_coordinate_is_culled(tmp_path):
    # at 6.25 px per meter the far point projects to an infinite pixel position
    cloud = _write_csv_cloud(tmp_path / "far.csv", ["1,1,0,1", "1e308,0,0,1"])
    out = tmp_path / "m.rgfm"
    assert main(["encode", "--cloud", str(cloud), "--out", str(out), "--set", "c=8"]) == 0
    assert np.all(np.isfinite(read_feature_map(out).data))


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
    cfg_file.write_text("r = 0.5\nlambda = 0.25\na_bus = 2.0\n# comment\n")
    code = main(["generate", "--out", "ignored", "--n", "1", "--config",
                 str(cfg_file), "--set", "seed=9", "--dump-config"])
    assert code == 0
    text = capsys.readouterr().out
    parsed = apply_updates(RunConfig(), parse_config_text(text))
    assert parsed.r == 0.5 and parsed.lam == 0.25 and parsed.seed == 9
    assert parsed.a_per_class["bus"] == 2.0
    assert dump_config(parsed) == text  # dump of the parse is bit-identical


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
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    assert main(["generate", "--out", "x", "--n", "1", "--config",
                 str(cfg_file)]) == 2
    assert "error: InvalidSpec" in capsys.readouterr().err


def test_malformed_set_fails(capsys):
    assert main(["generate", "--out", "x", "--n", "1", "--set", "r0.5"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


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


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0  # argparse SystemExit is mapped to a return
    assert "usage: rgk" in capsys.readouterr().out


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
