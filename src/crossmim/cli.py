"""Command-line entry point.

Subcommands: gen-data, pretrain, ablate, finetune, evaluate, reconstruct.
Every command reads an optional key=value config file plus repeatable
`--set key=value` overrides, writes the fully-resolved config into --out
before heavy work, and finishes by writing a manifest of produced files.
Every output except the append-only logs is written atomically, through a
temp file that then replaces it.

Exit codes: 0 success, 2 configuration error, 3 I/O or data-format error,
4 numeric failure (non-finite loss; a diagnostic dump path is printed),
5 checkpoint/dataset incompatibility.
"""

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from .config import _parse_value, desk_config, load_config
from .errors import (CheckpointError, CompatibilityError, ConfigError,
                     DataFormatError, NumericError)
from .metrics import ssi
from .render import reconstruction_grid, write_png, write_ppm
from .sensors import gen_synthetic, load_manifest, registry_preset, save_manifest
from .training import (STREAM_EVAL, STREAM_RENDER, Trainer, TrainConfig, load_pretrained,
                       stream_rng, write_json)
from .transfer import (TransferConfig, cross_reconstruction_l1, finetune,
                       make_task, reconstruct_records, reconstruction_report,
                       task_metrics)
from .masking import to_pixel_mask

EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_COMPAT = 2, 3, 4, 5


# ---------------------------------------------------------------------------
# shared plumbing

def _run_config(args):
    run = load_config(args.config) if args.config else desk_config()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()
    return run.with_overrides(overrides)


def _write_produced(out_dir):
    produced = []
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            if name == "produced-files.txt":
                continue
            produced.append(os.path.relpath(os.path.join(root, name), out_dir))
    ckpt.write_atomic(os.path.join(out_dir, "produced-files.txt"),
                      "\n".join(sorted(produced)) + "\n")


def _file_in(arg, name):
    """`arg` itself, or the file `name` in it when `arg` is a directory."""
    return os.path.join(arg, name) if os.path.isdir(arg) else arg


def _read_data(run, data_arg, checkpoint=None):
    """(dataset, model config, pretrained parameters or None): the dataset at
    `data_arg`, the run's model config, which must match the dataset's image
    size, and the checkpoint at `checkpoint` when one is given."""
    dataset = load_manifest(_file_in(data_arg, "data.msgfm"))
    mcfg = run.model_config()
    if (dataset.width, dataset.height) != (mcfg.image_w, mcfg.image_h):
        raise ConfigError(
            f"dataset images are {dataset.width}x{dataset.height}, but data.width x "
            f"data.height is {mcfg.image_w}x{mcfg.image_h}"
        )
    params = None
    if checkpoint:
        params = load_pretrained(_file_in(checkpoint, "checkpoint-final.msgm"),
                                 dataset.registry, mcfg)
    return dataset, mcfg, params


def _fmt_cell(v):
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    if isinstance(v, (float, np.floating)):
        return f"{v:.4f}"
    return str(v)


def format_table(headers, rows):
    """Plain aligned text table; first column left-aligned, rest right."""
    cells = [[_fmt_cell(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]

    def line(parts):
        first = parts[0].ljust(widths[0])
        rest = [p.rjust(w) for p, w in zip(parts[1:], widths[1:])]
        return "  ".join([first] + rest)

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out += [line(r) for r in cells]
    return "\n".join(out) + "\n"


def _evaluate(params, model_cfg, dataset, run):
    """(report, cross_l1) on the first `eval.samples` records of every
    sensor: reconstruction_report and cross_reconstruction_l1, each on its
    own evaluation stream."""
    records = [r for sid in sorted(dataset.by_sensor)
               for r in dataset.by_sensor[sid][:run["eval.samples"]]]
    report = reconstruction_report(params, model_cfg, dataset, records,
                                   stream_rng(run["seed"], STREAM_EVAL))
    cross_l1 = cross_reconstruction_l1(params, model_cfg, dataset, records,
                                       stream_rng(run["seed"], STREAM_EVAL, 1))
    return report, cross_l1


# ---------------------------------------------------------------------------
# commands

def _gen_dataset(run, out_dir):
    """The run's synthetic dataset, also written to <out_dir>/data.msgfm."""
    dataset = gen_synthetic(registry_preset(run["data.registry"]),
                            run["data.n_per_sensor"], run["data.width"], run["data.height"],
                            run["seed"])
    save_manifest(dataset, os.path.join(out_dir, "data.msgfm"))
    return dataset


def cmd_gen_data(args, run):
    dataset = _gen_dataset(run, args.out)
    registry = dataset.registry
    pairs = sorted(
        (s.sensor_id, s.paired_with) for s in registry
        if s.paired_with is not None and s.sensor_id < s.paired_with
    )
    for s in registry:
        n = len(dataset.by_sensor[s.sensor_id])
        pairing = f"paired with {registry[s.paired_with].name}" if s.paired_with is not None else "unpaired"
        print(f"sensor {s.sensor_id} {s.name}: {n} samples, {s.channels} channels, {pairing}")
    print(f"pairs: {len(pairs)}")
    print(f"total samples: {len(dataset)}")


def cmd_pretrain(args, run):
    dataset, mcfg, _ = _read_data(run, args.data)
    trainer = Trainer(dataset, mcfg, run.build(TrainConfig),
                      log_path=os.path.join(args.out, "metrics.jsonl"),
                      dump_dir=args.out)
    if args.resume:
        trainer.resume(_file_in(args.resume, "checkpoint-final.msgm"))
        print(f"resumed at step {trainer.state.step}")
    try:
        last = trainer.train_epochs(checkpoint_dir=args.out)
    finally:
        trainer.close()
    if last is not None:
        print(f"final step {last['step']}: loss_total {last['loss_total']:.6f}")


# ablation grid axis -> the config key whose parser reads its values
GRID_KEYS = {"moe": "model.moe", "cross": "train.p_cross"}


def _parse_grid(spec):
    axes = dict.fromkeys(GRID_KEYS)
    if not spec or not spec.strip():
        raise ConfigError("empty ablation grid")
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid axis must look like name=v1,v2, got {part!r}")
        name, vals = (s.strip() for s in part.split("=", 1))
        if name not in axes:
            raise ConfigError(f"unknown grid axis {name!r}, expected moe or cross")
        try:
            parsed = [_parse_value(GRID_KEYS[name], v) for v in vals.split(",") if v.strip()]
        except ConfigError as e:
            raise ConfigError(f"bad grid values for {name}: {e}") from e
        if not parsed:
            raise ConfigError(f"grid axis {name} has no values")
        axes[name] = parsed
    if axes["moe"] is None and axes["cross"] is None:
        raise ConfigError("empty ablation grid")
    return axes


def cmd_ablate(args, run):
    axes = _parse_grid(args.grid)
    moes = axes["moe"] if axes["moe"] is not None else [run["model.moe"]]
    crosses = axes["cross"] if axes["cross"] is not None else [run["train.p_cross"]]
    # every cell's config is built, and so checked, before the first cell trains;
    # the grid varies model keys only, so the cells share one TrainConfig
    train_cfg = run.build(TrainConfig)
    cells = {}  # cell directory -> (moe, cross, model config)
    for moe in moes:
        for cross in crosses:
            name = f"cell-moe{int(moe)}-cross{cross:g}"
            if name in cells:
                raise ConfigError(f"two grid cells would share {name}")
            cells[name] = (moe, cross, run.with_overrides({"model.moe": moe,
                                                           "train.p_cross": cross}).model_config())

    dataset = _read_data(run, args.data)[0] if args.data else _gen_dataset(run, args.out)

    rows = []
    results = []
    for name, (moe, cross, model_cfg) in cells.items():
        cell_dir = os.path.join(args.out, name)
        os.makedirs(cell_dir, exist_ok=True)
        trainer = Trainer(dataset, model_cfg, train_cfg,
                          log_path=os.path.join(cell_dir, "metrics.jsonl"), dump_dir=cell_dir)
        try:
            trainer.train_epochs()
        finally:
            trainer.close()
        report, cross_l1 = _evaluate(trainer.state.params, model_cfg, dataset, run)
        agg = {
            key: float(np.mean([per[key] for per in report.values() if key in per]))
            for key in ("masked_l1", "mae", "psnr", "ssim")
        }
        label = f"{'moe' if moe else 'dense'}/cross={cross:g}"
        rows.append([label, agg["masked_l1"], cross_l1, agg["mae"],
                     agg["psnr"], agg["ssim"]])
        results.append({
            "moe": moe, "cross": cross, "aggregate": agg,
            "cross_l1": cross_l1, "per_sensor": report,
        })

    table = format_table(["strategy", "masked_l1", "cross_l1", "mae", "psnr", "ssim"], rows)
    print(table, end="")
    ckpt.write_atomic(os.path.join(args.out, "ablation-table.txt"), table)
    write_json(os.path.join(args.out, "ablation.json"), results)


def _task_sensor_ids(run, dataset):
    names = run["transfer.sensors"]
    registry = dataset.registry
    if names:
        return tuple(registry.by_name(n).sensor_id for n in names)
    for s in registry:  # default: the first registered pair, else sensor 0
        if s.paired_with is not None and s.sensor_id < s.paired_with:
            return (s.sensor_id, s.paired_with)
    return (registry[0].sensor_id,)


def cmd_finetune(args, run):
    dataset, mcfg, pretrained = _read_data(run, args.data, args.checkpoint)
    tcfg = run.build(TransferConfig)
    task_sensors = _task_sensor_ids(run, dataset)
    samples = make_task(dataset, tcfg, task_sensors)
    params, losses = finetune(
        dataset.registry, mcfg, tcfg, task_sensors, samples, pretrained,
        steps=run["transfer.steps"], lr=run["transfer.lr"], batch_size=run["transfer.batch"],
        seed=run["seed"],
        log_path=os.path.join(args.out, "finetune-log.jsonl"), dump_dir=args.out,
    )
    named = {k: p.data for k, p in params.items()}
    named["meta.registry"] = ckpt.registry_digest(dataset.registry)
    named["meta.transfer_config"] = ckpt.json_to_u8({
        "mode": tcfg.mode, "head": tcfg.head, "task_sensors": list(task_sensors),
        "num_classes": tcfg.num_classes,
    })
    ckpt.save_tensors(os.path.join(args.out, "head.msgm"), named)
    # scored after the save, so an undefined metric (exit 4) keeps the head
    scores = task_metrics(params, mcfg, tcfg, task_sensors, samples)
    summary = {"initial_loss": losses[0], "final_loss": losses[-1], **scores}
    write_json(os.path.join(args.out, "finetune-summary.json"), summary)
    print(f"task sensors: {list(task_sensors)}  mode: {tcfg.mode}  head: {tcfg.head}")
    print(f"loss: {losses[0]:.6f} -> {losses[-1]:.6f} over {len(losses)} steps")
    for k, val in scores.items():
        print(f"{k}: {val:.6f}")


def cmd_evaluate(args, run):
    dataset, mcfg, params = _read_data(run, args.data, args.checkpoint)
    report, cross_l1 = _evaluate(params, mcfg, dataset, run)
    rows = []
    for sid, vals in sorted(report.items()):
        name = dataset.registry[sid].name
        rows.append([name, vals["masked_l1"], vals["mae"], vals["psnr"],
                     vals["ssim"], vals.get("sam_deg")])
    table = format_table(["sensor", "masked_l1", "mae", "psnr", "ssim", "sam_deg"], rows)
    print(table, end="")
    if cross_l1 is not None:
        print(f"cross_l1 (paired sensors): {cross_l1:.6f}")
    payload = {"per_sensor": {dataset.registry[sid].name: vals
                              for sid, vals in report.items()},
               "cross_l1": cross_l1}
    write_json(os.path.join(args.out, "metric-report.json"), payload)
    ckpt.write_atomic(os.path.join(args.out, "metric-table.txt"), table)


def cmd_reconstruct(args, run):
    dataset, mcfg, params = _read_data(run, args.data, args.checkpoint)
    registry = dataset.registry
    sensor = registry.by_name(run["reconstruct.sensor"]) if run["reconstruct.sensor"] else registry[0]
    records = dataset.by_sensor[sensor.sensor_id][: run["reconstruct.samples"]]
    if not records:
        raise DataFormatError(f"no samples for sensor {sensor.name!r}")
    results = reconstruct_records(params, mcfg, dataset, [(r, r) for r in records],
                                  stream_rng(run["seed"], STREAM_RENDER))
    triples = []
    stats = []
    for r, (plan, pred) in zip(records, results):
        gt = dataset.image(r.sample_id)
        triples.append((gt, pred, to_pixel_mask(plan)))
        if sensor.channels == 2:
            stats.append({
                "sample_id": r.sample_id,
                "gt_mean": [float(v) for v in gt.mean(axis=(1, 2))],
                "gt_std": [float(v) for v in gt.std(axis=(1, 2))],
                "pred_mean": [float(v) for v in pred.mean(axis=(1, 2))],
                "pred_std": [float(v) for v in pred.std(axis=(1, 2))],
                "ssi": [float(v) for v in ssi(gt, pred)],
            })
    grid = reconstruction_grid(triples)
    base = os.path.join(args.out, f"reconstruct-{sensor.name}")
    write_ppm(base + ".ppm", grid)
    wrote_png = write_png(base + ".png", grid)
    print(f"wrote {base}.ppm ({len(records)} columns, rows: masked/prediction/ground-truth)")
    if wrote_png:
        print(f"wrote {base}.png")
    if stats:
        write_json(base + "-stats.json", stats)
        print(f"wrote {base}-stats.json")


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="crossmim",
        description="Multisensor masked-image pretraining at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True,
                           help="dataset file (data.msgfm) or its directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True,
                           help="pretraining checkpoint file or its directory")

    p = sub.add_parser("gen-data", help="generate a synthetic multisensor dataset")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="run masked-image pretraining")
    common(p, data=True)
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("ablate", help="run a {moe} x {cross rate} ablation grid")
    common(p)
    p.add_argument("--data", help="reuse an existing dataset file")
    p.add_argument("--grid", required=True, help='e.g. "moe=0,1;cross=0,0.5,1.0"')
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("finetune", help="fine-tune on a synthetic downstream task")
    common(p, data=True)
    p.add_argument("--checkpoint", help="pretraining checkpoint (omit to train from scratch)")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="reconstruction metrics of a checkpoint")
    common(p, data=True, checkpoint=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reconstruct", help="render reconstruction grids")
    common(p, data=True, checkpoint=True)
    p.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        run = _run_config(args)
        os.makedirs(args.out, exist_ok=True)
        ckpt.write_atomic(os.path.join(args.out, "resolved-config.txt"), run.to_text())
        args.func(args, run)
        _write_produced(args.out)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, CheckpointError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        dump = e.diagnostics.get("dump_path")
        if dump:
            print(f"diagnostic dump: {dump}", file=sys.stderr)
        return EXIT_NUMERIC
    except CompatibilityError as e:
        print(f"incompatible checkpoint: {e}", file=sys.stderr)
        return EXIT_COMPAT


if __name__ == "__main__":
    sys.exit(main())
