"""Command-line workflows: gen-data, pretrain, ablate, finetune, evaluate,
reconstruct, plus exit-code and output-manifest conventions."""

import json
import os

import numpy as np
import pytest

import crossmim.checkpoint as ckpt
import crossmim.cli as cli
from crossmim.cli import _parse_grid, format_table, main
from crossmim.config import parse_config_text
from crossmim.errors import ConfigError
from crossmim.sensors import (Dataset, gen_synthetic, load_manifest, save_manifest,
                              single_registry)
from crossmim.training import TrainConfig

CONFIG = """
seed = 3
data.registry = pair
data.n_per_sensor = 4
data.width = 16
data.height = 16
model.width = 16
model.depth = 2
model.heads = 2
model.patch_size = 4
model.mask_unit = 8
model.num_experts = 2
model.ffn_mult = 2
train.base_batch = 4
train.epochs = 2
train.warmup_epochs = 1
train.base_lr = 0.001
train.warmup_lr = 0.00001
transfer.steps = 6
transfer.batch = 4
transfer.classes = 2
eval.samples = 2
reconstruct.samples = 2
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One shared dataset plus pretraining run for the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)
    data = root / "data"
    pre = root / "pre"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["pretrain", "--config", str(cfg), "--data", str(data),
                 "--out", str(pre)]) == 0
    return {"cfg": str(cfg), "data": str(data), "pre": str(pre), "root": root}


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_gen_data_outputs(ws):
    names = sorted(os.listdir(ws["data"]))
    assert names == ["data.msgfm", "produced-files.txt", "resolved-config.txt"]
    produced = open(os.path.join(ws["data"], "produced-files.txt")).read()
    assert produced.splitlines() == ["data.msgfm", "resolved-config.txt"]
    resolved = parse_config_text(
        open(os.path.join(ws["data"], "resolved-config.txt")).read())
    assert resolved["data.n_per_sensor"] == 4
    assert resolved["model.width"] == 16
    dataset = load_manifest(os.path.join(ws["data"], "data.msgfm"))
    assert len(dataset) == 8
    assert {s.name for s in dataset.registry} == {"sar", "optical"}


def test_set_overrides_beat_config_file(ws, tmp_path):
    out = tmp_path / "gen"
    code = main(["gen-data", "--config", ws["cfg"], "--out", str(out),
                 "--set", "seed=9", "--set", "data.n_per_sensor=2"])
    assert code == 0
    resolved = parse_config_text((out / "resolved-config.txt").read_text())
    assert resolved["seed"] == 9
    assert resolved["data.n_per_sensor"] == 2
    assert resolved["model.width"] == 16  # untouched file values survive
    assert len(load_manifest(str(out / "data.msgfm"))) == 4


def test_pretrain_outputs(ws):
    names = os.listdir(ws["pre"])
    assert "checkpoint-final.msgm" in names
    assert "checkpoint-epoch1.msgm" in names and "checkpoint-epoch2.msgm" in names
    assert "resolved-config.txt" in names
    lines = open(os.path.join(ws["pre"], "metrics.jsonl")).read().splitlines()
    # 4 samples/sensor at batch 4 -> one round per epoch, two epochs
    assert [json.loads(l)["step"] for l in lines] == [0, 1]
    assert all(np.isfinite(json.loads(l)["loss_total"]) for l in lines)
    produced = open(os.path.join(ws["pre"], "produced-files.txt")).read().splitlines()
    assert produced == sorted(produced)
    assert "metrics.jsonl" in produced and "produced-files.txt" not in produced


def test_pretrain_resume_flag(ws, tmp_path, capsys):
    out = tmp_path / "resumed"
    code = main(["pretrain", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", str(out), "--resume", ws["pre"]])
    assert code == 0
    assert "resumed at step 2" in capsys.readouterr().out


def test_resumed_log_equals_uninterrupted_log(ws, tmp_path):
    solo, split = tmp_path / "solo", tmp_path / "split"
    args = ["pretrain", "--config", ws["cfg"], "--data", ws["data"], "--set", "train.epochs=3"]
    assert main(args + ["--out", str(solo)]) == 0
    assert main(args + ["--out", str(split)]) == 0
    assert main(args + ["--out", str(split),
                        "--resume", str(split / "checkpoint-epoch1.msgm")]) == 0
    logged = (split / "metrics.jsonl").read_text()
    assert [json.loads(line)["step"] for line in logged.splitlines()] == [0, 1, 2]
    assert logged == (solo / "metrics.jsonl").read_text()


@pytest.mark.parametrize("line", [b"not json", b'{"epoch": 0}', b"\xff\xfe"])
def test_resume_rejects_a_corrupt_log_line(ws, tmp_path, capsys, line):
    log = tmp_path / "metrics.jsonl"
    corrupt = b'{"step": 0}\n' + line + b"\n"
    log.write_bytes(corrupt)
    assert main(["pretrain", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", str(tmp_path), "--resume", ws["pre"]]) == 3
    err = capsys.readouterr().err
    assert f"{log}:2" in err and "integer" in err
    assert log.read_bytes() == corrupt


def test_pretrain_rerun_replaces_log(ws, tmp_path):
    args = ["pretrain", "--config", ws["cfg"], "--data", ws["data"], "--out", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "metrics.jsonl").read_text()
    assert main(args) == 0
    logged = (tmp_path / "metrics.jsonl").read_text()
    assert [json.loads(line)["step"] for line in logged.splitlines()] == [0, 1]
    assert logged == first
    assert main(args + ["--set", "train.log_every=5"]) == 0  # logs none of its 2 steps
    assert (tmp_path / "metrics.jsonl").read_text() == ""


def test_finetune_rerun_replaces_log(ws, tmp_path):
    args = ["finetune", "--config", ws["cfg"], "--data", ws["data"], "--checkpoint", ws["pre"],
            "--out", str(tmp_path), "--set", "transfer.steps=3"]
    assert main(args) == 0
    assert main(args) == 0
    logged = (tmp_path / "finetune-log.jsonl").read_text()
    assert [json.loads(line)["step"] for line in logged.splitlines()] == [0, 1, 2]


def test_evaluation_and_render_stream_keys(ws, tmp_path, monkeypatch):
    keys = []
    monkeypatch.setattr(cli, "stream_rng", lambda *key: keys.append(key) or ckpt.stream_rng(*key))
    for command in ("evaluate", "reconstruct"):
        assert main([command, "--config", ws["cfg"], "--data", ws["data"],
                     "--checkpoint", ws["pre"], "--out", str(tmp_path)]) == 0
    assert keys == [(3, cli.STREAM_EVAL), (3, cli.STREAM_EVAL, 1), (3, cli.STREAM_RENDER)]


def test_evaluate_outputs(ws, tmp_path):
    out = tmp_path / "eval"
    code = main(["evaluate", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", ws["pre"], "--out", str(out)])
    assert code == 0
    report = read_json(out / "metric-report.json")
    assert set(report["per_sensor"]) == {"sar", "optical"}
    for vals in report["per_sensor"].values():
        assert {"masked_l1", "mae", "psnr", "ssim"} <= set(vals)
        assert vals["masked_l1"] > 0.0
    assert isinstance(report["cross_l1"], float) and report["cross_l1"] > 0.0
    table = (out / "metric-table.txt").read_text().splitlines()
    assert table[0].split()[:2] == ["sensor", "masked_l1"]
    assert len(table) == 4  # header, rule, one row per sensor


def test_reconstruct_outputs(ws, tmp_path):
    out = tmp_path / "recon"
    code = main(["reconstruct", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", ws["pre"], "--out", str(out)])
    assert code == 0
    raw = (out / "reconstruct-sar.ppm").read_bytes()
    # 2 sample columns and 3 rows of 16x16 tiles with 2px separators
    header = b"P6\n34 52\n255\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 34 * 52 * 3
    try:
        import PIL  # noqa: F401
        assert (out / "reconstruct-sar.png").exists()
    except ImportError:
        assert not (out / "reconstruct-sar.png").exists()
    stats = read_json(out / "reconstruct-sar-stats.json")  # sar has 2 channels
    assert len(stats) == 2
    assert all(len(s["ssi"]) == 2 and len(s["gt_mean"]) == 2 for s in stats)


def test_reconstruct_named_sensor_without_stats(ws, tmp_path):
    out = tmp_path / "recon3"
    code = main(["reconstruct", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", ws["pre"], "--out", str(out),
                 "--set", "reconstruct.sensor=optical"])
    assert code == 0
    assert (out / "reconstruct-optical.ppm").exists()
    assert not (out / "reconstruct-optical-stats.json").exists()


def test_finetune_outputs(ws, tmp_path):
    out = tmp_path / "ft"
    code = main(["finetune", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", ws["pre"], "--out", str(out)])
    assert code == 0
    summary = read_json(out / "finetune-summary.json")
    assert {"initial_loss", "final_loss", "map"} <= set(summary)
    assert np.isfinite(summary["final_loss"])
    lines = (out / "finetune-log.jsonl").read_text().splitlines()
    assert len(lines) == 6
    assert set(json.loads(lines[-1])) == {"step", "epoch", "lr", "loss_total"}
    named = ckpt.load_tensors(str(out / "head.msgm"))
    assert "head.w" in named and "meta.transfer_config" in named
    meta = json.loads(bytes(named["meta.transfer_config"]).decode("utf-8"))
    assert set(meta) == {"head", "mode", "num_classes", "task_sensors"}
    assert meta["head"] == "multilabel" and meta["task_sensors"] == [0, 1]


def test_finetune_from_scratch(ws, tmp_path):
    out = tmp_path / "scratch"
    code = main(["finetune", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", str(out), "--set", "transfer.steps=3",
                 "--set", "transfer.head=dense_regression"])
    assert code == 0
    summary = read_json(out / "finetune-summary.json")
    assert "mae" in summary and np.isfinite(summary["final_loss"])


def test_ablate_writes_grid_table(ws, tmp_path):
    out = tmp_path / "abl"
    code = main(["ablate", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", str(out), "--grid", "moe=0;cross=0,1"])
    assert code == 0
    table = (out / "ablation-table.txt").read_text().splitlines()
    assert table[0].split()[0] == "strategy"
    assert len(table) == 4  # header, rule, 2 grid cells
    assert table[2].startswith("dense/cross=0")
    assert table[3].startswith("dense/cross=1")
    cells = read_json(out / "ablation.json")
    assert [(c["moe"], c["cross"]) for c in cells] == [(False, 0.0), (False, 1.0)]
    for c in cells:
        assert np.isfinite(c["aggregate"]["masked_l1"])
    for name in ("cell-moe0-cross0", "cell-moe0-cross1"):
        assert (out / name / "metrics.jsonl").exists()


def test_parse_grid():
    axes = _parse_grid("moe=0,1;cross=0,0.5,1.0")
    assert axes["moe"] == [0.0, 1.0]
    assert axes["cross"] == [0.0, 0.5, 1.0]
    assert _parse_grid("cross=0.25") == {"moe": None, "cross": [0.25]}
    with pytest.raises(ConfigError, match="empty"):
        _parse_grid("  ")
    with pytest.raises(ConfigError, match="empty"):
        _parse_grid(";")
    with pytest.raises(ConfigError, match="unknown grid axis"):
        _parse_grid("depth=1,2")
    with pytest.raises(ConfigError, match="name=v1,v2"):
        _parse_grid("moe:0,1")
    with pytest.raises(ConfigError, match="no values"):
        _parse_grid("moe=,")
    with pytest.raises(ConfigError, match="bad grid values"):
        _parse_grid("cross=low,high")


@pytest.mark.parametrize("grid", [
    "moe=nan", "moe=inf", "moe=2", "moe=0.5", "cross=nan", "cross=inf",
    "cross=0.5,0.5", "cross=0.1234561,0.1234562",  # two values, one cell directory
])
def test_bad_grid_value_exits_2(ws, tmp_path, capsys, grid):
    assert main(["ablate", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", str(tmp_path / "x"), "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_format_table_alignment():
    table = format_table(["name", "a", "b"],
                         [["row1", 1.0, None], ["longer-row", float("inf"), 3],
                          ["r3", -np.inf, np.float32(0.5)], ["r4", np.float32(np.nan), -np.inf]])
    lines = table.splitlines()
    assert len(lines) == 6 and table.endswith("\n")
    assert len({len(l) for l in lines}) == 1
    assert set(lines[1]) <= {"-", " "}
    assert "1.0000" in lines[2] and lines[2].rstrip().endswith("-")
    assert "inf" in lines[3] and lines[3].rstrip().endswith("3")
    assert lines[4].split() == ["r3", "-inf", "0.5000"]
    assert lines[5].split() == ["r4", "nan", "-inf"]


def test_config_error_exit_codes(ws, tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["gen-data", "--out", out, "--set", "bogus.key=1"]) == 2
    assert main(["gen-data", "--out", out, "--set", "seed"]) == 2
    assert main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                 "--out", out]) == 2
    assert main(["ablate", "--config", ws["cfg"], "--out", out,
                 "--grid", "depth=1"]) == 2
    assert main(["ablate", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", out, "--grid", "cross=2"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "data.n_per_sensor=abc", "train.base_lr=abc", "transfer.classes=x",
])
def test_unparsable_value_exits_2(tmp_path, capsys, setting):
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--set", setting]) == 2
    assert "bad value for" in capsys.readouterr().err


@pytest.mark.parametrize("command,setting", [
    ("pretrain", "model.patch_size=0"),
    ("pretrain", "model.width=0"),
    ("pretrain", "data.width=-8"),
    ("gen-data", "data.width=-8"),
    ("gen-data", "data.width=0"),
    ("finetune", "transfer.steps=0"),
    ("finetune", "transfer.steps=-1"),
    ("finetune", "transfer.batch=0"),
])
def test_non_positive_size_exits_2(ws, tmp_path, capsys, command, setting):
    args = [command, "--config", ws["cfg"], "--out", str(tmp_path / "x"),
            "--set", setting]
    if command != "gen-data":
        args += ["--data", ws["data"]]
    assert main(args) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,setting", [
    ("finetune", "transfer.lr=nan"),
    ("pretrain", "train.base_lr=0"),
    ("pretrain", "train.eps=0"),
    ("pretrain", "train.beta2=2"),
])
def test_bad_optimizer_value_exits_2(ws, tmp_path, capsys, command, setting):
    args = [command, "--config", ws["cfg"], "--data", ws["data"],
            "--out", str(tmp_path / "x"), "--set", setting]
    assert main(args) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("command,setting", [
    ("pretrain", "model.capacity_factor=inf"),
    ("pretrain", "model.capacity_factor=nan"),
    ("pretrain", "model.aux_weight=nan"),
    ("pretrain", "model.aux_weight=-1"),
    ("gen-data", "seed=-1"),
    ("pretrain", "seed=-1"),
    ("finetune", "seed=-1"),
    ("pretrain", "train.warmup_epochs=-1"),
    ("pretrain", "train.log_every=0"),
    ("pretrain", "train.checkpoint_every=0"),
    ("pretrain", "train.base_batch=5"),  # the workspace has 4 images per sensor
    ("evaluate", "eval.samples=0"),
    ("evaluate", "eval.samples=-2"),
    ("reconstruct", "reconstruct.samples=0"),
    ("reconstruct", "reconstruct.samples=-1"),
    ("pretrain", "model.mask_unit=16"),  # a 1x1 mask grid on 16x16 images
    ("evaluate", "model.mask_unit=16"),
])
def test_out_of_range_value_exits_2(ws, tmp_path, capsys, command, setting):
    args = [command, "--config", ws["cfg"], "--out", str(tmp_path / "x"), "--set", setting]
    if command != "gen-data":
        args += ["--data", ws["data"]]
    if command in ("evaluate", "reconstruct"):
        args += ["--checkpoint", ws["pre"]]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_seed_range_ends_below_2_pow_64(ws, tmp_path, capsys):
    """Seeds of 2**128 and above would overflow into the stream spawn key,
    so `seed` stops at 2**64 - 1, in the CLI and in `TrainConfig`."""
    args = ["gen-data", "--config", ws["cfg"], "--set", "data.n_per_sensor=1"]
    assert main(args + ["--out", str(tmp_path / "big"), "--set",
                        "seed=18446744073709551616"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err and "Traceback" not in err
    assert main(args + ["--out", str(tmp_path / "top"), "--set",
                        "seed=18446744073709551615"]) == 0
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=2**64)


@pytest.mark.parametrize("command", ["pretrain", "ablate", "finetune", "evaluate",
                                     "reconstruct"])
def test_dataset_size_mismatch_exits_2(ws, tmp_path, capsys, command):
    data = tmp_path / "data32"
    assert main(["gen-data", "--config", ws["cfg"], "--out", str(data),
                 "--set", "data.width=32", "--set", "data.height=32",
                 "--set", "data.n_per_sensor=1"]) == 0
    args = [command, "--config", ws["cfg"], "--data", str(data), "--out", str(tmp_path / "x")]
    if command == "ablate":
        args += ["--grid", "moe=0"]
    if command in ("finetune", "evaluate", "reconstruct"):
        args += ["--checkpoint", ws["pre"]]  # matches the config, not the dataset
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert "32x32" in err and "16x16" in err


def test_io_error_exit_codes(ws, tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["pretrain", "--config", ws["cfg"],
                 "--data", str(tmp_path / "missing.msgfm"), "--out", out]) == 3
    junk = tmp_path / "junk.msgm"
    junk.write_bytes(b"NOPEnope" * 4)
    assert main(["evaluate", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", str(junk), "--out", out]) == 3
    assert "data error" in capsys.readouterr().err


def test_unreadable_dataset_file_exits_3(ws, tmp_path, capsys):
    old_text = tmp_path / "old.msgfm"
    old_text.write_text("MSGFM-DATA v1\nblob old.bin 0\nsize 16 16\n")
    flipped = bytearray(open(os.path.join(ws["data"], "data.msgfm"), "rb").read())
    flipped[len(flipped) // 2] ^= 0x01
    (tmp_path / "flipped.msgfm").write_bytes(bytes(flipped))
    for name, hint in (("old.msgfm", "magic"), ("flipped.msgfm", "checksum")):
        assert main(["pretrain", "--config", ws["cfg"], "--data", str(tmp_path / name),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert hint in err and "crossmim gen-data" in err and "Traceback" not in err


def test_numeric_error_exit_code(ws, tmp_path, capsys):
    named = dict(ckpt.load_tensors(
        os.path.join(ws["pre"], "checkpoint-final.msgm")))
    bad = named["encoder.block0.ffn.w2"].copy()
    bad[:] = np.inf
    named["encoder.block0.ffn.w2"] = bad
    poisoned = tmp_path / "poisoned.msgm"
    ckpt.save_tensors(str(poisoned), named)
    out = tmp_path / "eval"
    with np.errstate(invalid="ignore", over="ignore"):
        code = main(["evaluate", "--config", ws["cfg"], "--data", ws["data"],
                     "--checkpoint", str(poisoned), "--out", str(out)])
    assert code == 4
    assert "numeric failure" in capsys.readouterr().err
    # the resolved config is written before any heavy work begins
    assert (out / "resolved-config.txt").exists()


def test_finetune_numeric_failure_writes_dump(ws, tmp_path, capsys):
    out = tmp_path / "ft"
    with np.errstate(all="ignore"):
        code = main(["finetune", "--config", ws["cfg"], "--data", ws["data"],
                     "--checkpoint", ws["pre"], "--out", str(out),
                     "--set", "transfer.lr=1e30"])
    assert code == 4
    err = capsys.readouterr().err
    assert "diagnostic dump: " in err
    dump = err.split("diagnostic dump: ", 1)[1].strip()
    assert os.path.dirname(dump) == str(out) and os.path.isfile(dump)


def test_huge_capacity_factor_pretrains(ws, tmp_path, capsys):
    code = main(["pretrain", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", str(tmp_path / "pre"), "--set", "model.capacity_factor=1e308"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def test_finetune_keeps_the_head_when_the_metric_is_undefined(ws, tmp_path, capsys):
    """A multilabel task with no positive label has no mAP: exit 4, but the
    trained head is already on disk.  Every image is negative, so no label
    strip has a positive mean."""
    sets = ["--set", "data.registry=single", "--set", "data.n_per_sensor=5",
            "--set", "data.width=8", "--set", "data.height=16", "--set", "model.width=6",
            "--set", "transfer.classes=2", "--set", "transfer.head=multilabel"]
    data, out = tmp_path / "data", tmp_path / "ft"
    ds = gen_synthetic(single_registry(), 5, 8, 16, seed=3)
    data.mkdir()
    save_manifest(Dataset(ds.registry, 8, 16, ds.records, [-1.0 - np.abs(im) for im in ds.images]),
                  str(data / "data.msgfm"))
    code = main(["finetune", "--config", ws["cfg"], "--data", str(data),
                 "--out", str(out)] + sets)
    assert code == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err
    named = ckpt.load_tensors(str(out / "head.msgm"))
    assert "head.w" in named and "meta.transfer_config" in named


def test_evaluate_reports_a_nan_reconstruction_as_nan(ws, tmp_path, capsys):
    """A NaN decoder makes every sar record NaN: the report reads "nan",
    not the "inf" of a perfect reconstruction, and the command exits 0."""
    named = ckpt.load_tensors(os.path.join(ws["pre"], "checkpoint-final.msgm"))
    named["decoder.0.proj"][:] = np.nan
    broken = str(tmp_path / "nan.msgm")
    ckpt.save_tensors(broken, named)
    assert main(["evaluate", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", broken, "--out", str(tmp_path / "eval")]) == 0
    sar = read_json(tmp_path / "eval" / "metric-report.json")["per_sensor"]["sar"]
    assert set(sar.values()) == {"nan"}, sar
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("entry,change", [
    ("opt.m.shared.pos_embed", "drop"), ("opt.m.encoder.block0.attn.wq", "reshape"),
    ("opt.v.decoder.1.bias", "drop"), ("opt.v.embedder.0.kernel", "reshape"),
    ("meta.step", "drop"), ("meta.step", "reshape"),
    ("rng.mask", "drop"), ("rng.cross", "drop"),
    ("sampler.sensor_ids", "drop"), ("sampler.cycle", "reshape"), ("sampler.pos", "reshape"),
    ("opt.v.encoder.block1.gate.w", "cast"), ("meta.step", "cast"), ("rng.mask", "cast"),
])
def test_resume_checks_every_entry_it_reads(ws, tmp_path, capsys, entry, change):
    """A checkpoint that lacks an entry `resume` reads, or holds one at the
    wrong shape or dtype, is incompatible: exit 5 naming the entry, no
    traceback."""
    named = ckpt.load_tensors(os.path.join(ws["pre"], "checkpoint-final.msgm"))
    if change == "drop":
        del named[entry]
    elif change == "cast":
        named[entry] = named[entry].astype(np.float64)
    else:
        named[entry] = named[entry].reshape(1, -1)
    broken = str(tmp_path / "broken.msgm")
    ckpt.save_tensors(broken, named)
    assert main(["pretrain", "--config", ws["cfg"], "--data", ws["data"],
                 "--out", str(tmp_path / "out"), "--resume", broken]) == 5
    err = capsys.readouterr().err
    assert entry in err and "Traceback" not in err


def test_evaluate_refuses_a_float64_parameter(ws, tmp_path, capsys):
    named = ckpt.load_tensors(os.path.join(ws["pre"], "checkpoint-final.msgm"))
    named["encoder.block0.ffn.w2"] = named["encoder.block0.ffn.w2"].astype(np.float64)
    cast = str(tmp_path / "cast.msgm")
    ckpt.save_tensors(cast, named)
    assert main(["evaluate", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", cast, "--out", str(tmp_path / "eval")]) == 5
    err = capsys.readouterr().err
    assert "'encoder.block0.ffn.w2' is float64" in err and "Traceback" not in err


def test_resume_saves_no_non_finite_state(ws, tmp_path, capsys):
    """NaN moments make the last update's parameters NaN with no loss left
    to show it: the save names the first non-finite entry and exits 4
    before it writes any checkpoint."""
    named = ckpt.load_tensors(os.path.join(ws["pre"], "checkpoint-final.msgm"))
    named["opt.m.shared.pos_embed"][:] = np.nan
    broken, out = str(tmp_path / "nan.msgm"), tmp_path / "out"
    ckpt.save_tensors(broken, named)
    assert main(["pretrain", "--config", ws["cfg"], "--data", ws["data"], "--out", str(out),
                 "--resume", broken, "--set", "train.epochs=3"]) == 4
    err = capsys.readouterr().err
    assert "'shared.pos_embed' is not finite" in err and "Traceback" not in err
    assert not [f for f in os.listdir(out) if f.endswith(".msgm")]


# a few entries of every checkpoint family, for the corpus below
CORPUS_ENTRIES = ("shared.pos_embed", "decoder.1.bias", "opt.m.encoder.block0.attn.wq",
                  "opt.v.embedder.0.kernel", "meta.step", "meta.registry", "rng.mask",
                  "sampler.pos")


def test_checkpoint_corpus_through_the_cli(ws, tmp_path, capsys):
    """Each corpus entry dropped, cast to float64, NaN-filled (float entries
    only) or given a leading axis, through `pretrain --resume`, `evaluate`
    and `finetune`: every run exits 0, 3, 4 or 5 with no traceback, one that
    reads a dropped or cast entry exits 5, and a NaN resume exits 4."""
    named = ckpt.load_tensors(os.path.join(ws["pre"], "checkpoint-final.msgm"))
    wrong, runs = {}, 0
    for entry in CORPUS_ENTRIES:
        arr = named[entry]
        variants = {"drop": {k: a for k, a in named.items() if k != entry},
                    "cast": {**named, entry: arr.astype(np.float64)},
                    "lead": {**named, entry: arr[None]}}
        if arr.dtype.kind == "f":
            variants["nan"] = {**named, entry: np.full_like(arr, np.nan)}
        for change, variant in variants.items():
            path = str(tmp_path / f"{entry}-{change}.msgm")
            ckpt.save_tensors(path, variant)
            for command in ("pretrain", "evaluate", "finetune"):
                flag = "--resume" if command == "pretrain" else "--checkpoint"
                runs += 1
                with np.errstate(all="ignore"):
                    code = main([command, "--config", ws["cfg"], "--data", ws["data"],
                                 flag, path, "--out", str(tmp_path / str(runs)),
                                 "--set", "train.epochs=3"])
                err = capsys.readouterr().err
                reads = command == "pretrain" or not entry.startswith(
                    ("opt.", "rng.", "sampler.", "meta.step"))
                allowed = ({4} if change == "nan" and command == "pretrain" else
                           {5} if change in ("drop", "cast") and reads else {0, 3, 4, 5})
                if code not in allowed or "Traceback" in err:
                    wrong[entry, change, command] = (code, err)
    assert runs == 84 and not wrong, wrong


def test_compat_error_exit_codes(ws, tmp_path, capsys):
    out = str(tmp_path / "x")
    code = main(["evaluate", "--config", ws["cfg"], "--data", ws["data"],
                 "--checkpoint", ws["pre"], "--out", out,
                 "--set", "model.depth=3"])
    assert code == 5
    desk = tmp_path / "desk"
    assert main(["gen-data", "--config", ws["cfg"], "--out", str(desk),
                 "--set", "data.registry=desk",
                 "--set", "data.n_per_sensor=1"]) == 0
    code = main(["evaluate", "--config", ws["cfg"], "--data", str(desk),
                 "--checkpoint", ws["pre"], "--out", out])
    assert code == 5
    assert "incompatible checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command,setting", [
    ("evaluate", "model.mask_ratio=0.3"),
    ("evaluate", "train.p_cross=0"),
    ("evaluate", "model.capacity_factor=2"),
    ("evaluate", "model.aux_weight=0"),
    ("finetune", "train.p_cross=0"),
    ("pretrain", "train.p_cross=0.2"),
])
def test_checkpoint_pins_only_architecture(ws, tmp_path, command, setting):
    flag = "--resume" if command == "pretrain" else "--checkpoint"
    assert main([command, "--config", ws["cfg"], "--data", ws["data"],
                 flag, ws["pre"], "--out", str(tmp_path / "x"),
                 "--set", setting]) == 0


def test_argparse_failures_map_to_exit_2(capsys):
    assert main([]) == 2
    assert main(["gen-data"]) == 2  # --out is required
    assert main(["no-such-command", "--out", "x"]) == 2
    capsys.readouterr()
