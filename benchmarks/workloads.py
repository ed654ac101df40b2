"""The benchmark's workloads.

Each workload has a set-up (import crossmim, generate the dataset, write
and read back its manifest, build the parameters or load a checkpoint), a
unit of timed work, and the context its correctness checks need.  Every
input comes from the run's seed.

- desk-pretrain: the desk registry (five sensors: one unpaired, two pairs),
  32x32 images, width 32, depth 4, a 4-expert MoE in every other block,
  base batch 8, so 40 samples per round.  Per-node tape overhead, the
  per-sample trunk loop and garbage collection dominate a round.
- wide-pretrain: the pair registry, 64x64 images, width 128, depth 4, a
  dense trunk, base batch 4, so 8 samples per round.  BLAS arithmetic
  dominates; changes that trade arithmetic or memory for fewer tape nodes
  show their cost here, and MoE changes should not move it.
- desk-downstream: a desk checkpoint written before set-up by a separate
  process, then `crossmim evaluate` (reconstruction_report and
  cross_reconstruction_l1) and `crossmim finetune` (multilabel head on the
  sar+ms pair, shared_encoder_concat) in turn.  The trunk runs forward
  without a tape, and the metrics and transfer layers are exercised.
"""

import importlib
import os
import subprocess
import sys

import numpy as np

import checks

PACKAGE = "crossmim"
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

DESK = {"registry": "desk", "n_per_sensor": 32, "image": 32, "base_batch": 8, "overrides": {}}
WIDE = {"registry": "pair", "n_per_sensor": 16, "image": 64, "base_batch": 4,
        "overrides": {"model.width": "128", "model.depth": "4", "model.moe": "false"}}

EVAL_PER_SENSOR = 8  # `crossmim evaluate` default eval.samples
FINETUNE_STEPS = 4  # fine-tuning steps per downstream cycle
FINETUNE_BATCH = 8  # `crossmim finetune` default transfer.batch
FINETUNE_LR = 1e-3  # `crossmim finetune` default transfer.lr
PREPARE_EPOCHS = 1


def purge_crossmim():
    """Forget every loaded crossmim module so the next import runs them again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def import_crossmim(extra=()):
    cm = importlib.import_module(PACKAGE)
    for name in extra:
        importlib.import_module(f"{PACKAGE}.{name}")
    return cm


def loaded_modules():
    """Short name -> module for every loaded crossmim submodule, plus the
    package itself under its own name."""
    mods = {name[len(PACKAGE) + 1:]: mod for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".") and mod is not None}
    mods[PACKAGE] = sys.modules[PACKAGE]
    return mods


def error_types():
    errors = sys.modules[f"{PACKAGE}.errors"]
    return tuple(v for v in vars(errors).values()
                 if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == errors.__name__)


def build_dataset(cm, shape, seed, data_dir):
    """Generate the synthetic dataset, write its manifest and read it back."""
    registry = {"desk": cm.desk_registry, "pair": cm.pair_registry}[shape["registry"]]()
    dataset = cm.gen_synthetic(registry, shape["n_per_sensor"], shape["image"], shape["image"], seed)
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, "data.msgfm")
    cm.save_manifest(dataset, path)
    return cm.load_manifest(path)


def model_config(cm, shape):
    overrides = {"data.width": str(shape["image"]), "data.height": str(shape["image"])}
    overrides.update(shape["overrides"])
    return cm.desk_config().with_overrides(overrides).model_config()


def make_trainer(cm, shape, dataset, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    # epochs only bounds the warm-up schedule here; train_epochs is given its target
    train_cfg = cm.TrainConfig(base_batch=shape["base_batch"], epochs=10**6, seed=seed)
    return cm.Trainer(dataset, model_config(cm, shape), train_cfg,
                      log_path=os.path.join(out_dir, "metrics.jsonl"), dump_dir=out_dir)


class Pretrain:
    """Trainer.train_epochs with a checkpoint directory, as `crossmim pretrain` runs it.

    The unit of work is one epoch (four rounds at both shapes); an operation
    is one round.
    """

    extra_modules = ()

    def __init__(self, shape, seed, run_dir):
        self.shape, self.seed, self.run_dir = shape, seed, run_dir
        self.out_dir = os.path.join(run_dir, "pretrain")
        self.trainer = None

    def prepare(self):
        pass

    def build(self, cm):
        if self.trainer is not None:
            self.trainer.close()
        dataset = build_dataset(cm, self.shape, self.seed, os.path.join(self.run_dir, "data"))
        self.trainer = make_trainer(cm, self.shape, dataset, self.seed, self.out_dir)
        self.samples_per_op = sum(e.batch_size for e in self.trainer.schedule.values())
        self.ops_per_unit = self.trainer.steps_per_epoch

    def run_unit(self):
        """Run one epoch; (rounds, samples) completed are left in self.done
        even when a round raises."""
        t = self.trainer
        start = t.state.step
        try:
            t.train_epochs(epochs=t.epoch + 1, checkpoint_dir=self.out_dir)
        finally:
            rounds = t.state.step - start
            self.done = (rounds, rounds * self.samples_per_op)
        return self.done

    def check_context(self):
        import_crossmim(("transfer",))  # the report check evaluates the trained trunk
        t = self.trainer
        t.close()
        stored = {k: p.data for k, p in t.state.params.items()}
        stored.update({f"opt.m.{k}": a for k, a in t.state.m.items()})
        stored.update({f"opt.v.{k}": a for k, a in t.state.v.items()})
        return checks.Context(loaded_modules(), t.state.params, t.model_cfg, t.dataset,
                              self.seed, self.run_dir, losses=list(t.state.history),
                              stored_checkpoint=(os.path.join(self.out_dir, "checkpoint-final.msgm"),
                                                 stored))


class Downstream:
    """Evaluation and fine-tuning from a desk checkpoint.

    The unit of work is one cycle: `crossmim evaluate` over EVAL_PER_SENSOR
    records of every sensor, then `crossmim finetune` for FINETUNE_STEPS
    steps.  An operation is one evaluated record (reconstruction report or
    cross reconstruction) or one fine-tuning step.
    """

    extra_modules = ("transfer",)

    def __init__(self, shape, seed, run_dir):
        self.shape, self.seed, self.run_dir = shape, seed, run_dir
        self.ckpt_dir = os.path.join(run_dir, "prepared")
        self.ckpt_path = os.path.join(self.ckpt_dir, "checkpoint-final.msgm")
        self.losses = []

    def prepare(self):
        """Write the pretrained checkpoint in a child process, so that its
        memory and time stay out of this process's figures."""
        subprocess.run([sys.executable, RUN_PY, "--prepare-checkpoint", self.ckpt_dir,
                        "--seed", str(self.seed)],
                       check=True, timeout=600, stdout=subprocess.DEVNULL)

    def build(self, cm):
        transfer = sys.modules[f"{PACKAGE}.transfer"]
        training = sys.modules[f"{PACKAGE}.training"]
        dataset = build_dataset(cm, self.shape, self.seed, os.path.join(self.run_dir, "data"))
        self.cfg = model_config(cm, self.shape)
        self.params = training.load_pretrained(self.ckpt_path, dataset.registry, self.cfg)
        self.tcfg = transfer.TransferConfig(mode="shared_encoder_concat", head="multilabel")
        reg = dataset.registry
        self.task_sensors = (reg.by_name("sar").sensor_id, reg.by_name("ms").sensor_id)
        self.task = transfer.make_task(dataset, self.tcfg, self.task_sensors)
        self.records = [r for sid in sorted(dataset.by_sensor)
                        for r in dataset.by_sensor[sid][:EVAL_PER_SENSOR]]
        paired = sum(1 for r in self.records if r.partner_sample_id is not None)
        self.eval_rng = np.random.default_rng([self.seed, 5])
        self.cross_rng = np.random.default_rng([self.seed, 5, 1])
        self.dataset, self.transfer = dataset, transfer
        self.ops_per_unit = len(self.records) + paired + FINETUNE_STEPS
        self.samples_per_unit = len(self.records) + paired + FINETUNE_STEPS * FINETUNE_BATCH

    def run_unit(self):
        """Run one cycle; (operations, samples) are left in self.done, and
        stay (0, 0) when the cycle raises."""
        self.done = (0, 0)
        self.report = self.transfer.reconstruction_report(
            self.params, self.cfg, self.dataset, self.records, self.eval_rng)
        self.cross_l1 = self.transfer.cross_reconstruction_l1(
            self.params, self.cfg, self.dataset, self.records, self.cross_rng)
        _params, losses = self.transfer.finetune(
            self.dataset.registry, self.cfg, self.tcfg, self.task_sensors, self.task,
            self.params, steps=FINETUNE_STEPS, lr=FINETUNE_LR,
            batch_size=FINETUNE_BATCH, seed=self.seed,
            log_path=os.path.join(self.run_dir, "finetune-log.jsonl"))
        self.losses.extend(losses)
        self.done = (self.ops_per_unit, self.samples_per_unit)
        return self.done

    def check_context(self):
        values = [v for per in self.report.values() for v in per.values()] + [self.cross_l1]
        stored = {k: p.data for k, p in self.params.items()}
        return checks.Context(loaded_modules(), self.params, self.cfg, self.dataset,
                              self.seed, self.run_dir, losses=self.losses + values,
                              stored_checkpoint=(self.ckpt_path, stored))


WORKLOADS = {
    "desk-pretrain": (Pretrain, DESK),
    "wide-pretrain": (Pretrain, WIDE),
    "desk-downstream": (Downstream, DESK),
}


def make(name, seed, run_dir):
    cls, shape = WORKLOADS[name]
    return cls(shape, seed, run_dir)


def prepare_checkpoint(out_dir, seed):
    """Body of the child process started by Downstream.prepare."""
    cm = import_crossmim()
    dataset = build_dataset(cm, DESK, seed, os.path.join(out_dir, "data"))
    trainer = make_trainer(cm, DESK, dataset, seed, out_dir)
    try:
        trainer.train_epochs(epochs=PREPARE_EPOCHS, checkpoint_dir=out_dir)
    finally:
        trainer.close()
