"""The one training loop, plus AdamW, the schedule and persistence.

`Trainer` owns the step machinery; a caller supplies the loss, samplers
and per-sensor lr scales.  Pretraining visits every sensor once per round
(ascending sensor id), sums the per-sensor losses, and applies a single
optimizer update.  Batch sizes are proportional to per-sensor dataset
sizes; the induced learning rates are realized as per-parameter-group
scales on sensor-owned modules (embedder and decoder), while shared trunk
parameters use the base rate.  Fine-tuning (`transfer.finetune`) supplies
the task loss, one sampler over the task samples and flat scales.

All randomness flows through streams keyed by the run seed and a
`STREAM_*` tag (`checkpoint.stream_rng`, re-exported here with the tags).
A trainer's state keeps its streams in one table by name, "mask" and
"cross" in pretraining, and a checkpoint stores each as `rng.<name>`, so a
resumed run continues the exact trajectory of an uninterrupted one.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from . import tensor as T
from .checkpoint import (STREAM_CROSS, STREAM_DATA, STREAM_EVAL, STREAM_MASK,
                         STREAM_RENDER, STREAM_TASK, stream_rng)
from .config import check_fields, keyed
from .errors import CompatibilityError, ConfigError, DataFormatError, NumericError
from .model import init_params, round_loss
from .sensors import MultisensorBatch


@dataclass(frozen=True)
class TrainConfig:
    base_batch: int = keyed("train.base_batch")
    base_lr: float = keyed("train.base_lr")
    epochs: int = keyed("train.epochs")
    warmup_epochs: int = keyed("train.warmup_epochs")
    warmup_lr: float = keyed("train.warmup_lr")
    milestones: tuple = keyed("train.milestones")
    gamma: float = keyed("train.gamma")
    beta1: float = keyed("train.beta1")
    beta2: float = keyed("train.beta2")
    eps: float = keyed("train.eps")
    weight_decay: float = keyed("train.weight_decay")
    seed: int = keyed("seed")
    checkpoint_every: int = keyed("train.checkpoint_every")  # epochs
    log_every: int = keyed("train.log_every")  # steps

    def __post_init__(self):
        check_fields(self)
        if self.warmup_epochs > self.epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} exceeds epochs {self.epochs}"
            )


@dataclass(frozen=True)
class ScheduleEntry:
    batch_size: int
    lr_scale: float
    steps_per_epoch: int


def make_schedule(sizes, base_batch):
    """Per-sensor (batch size, lr scale, steps/epoch) from dataset sizes.

    The largest sensor receives the base batch, which may not exceed its
    sample count; every other sensor gets a batch proportional to its share
    of the data, and its learning rate is scaled by the same factor.  Steps
    per epoch are equalized to the largest sensor's count; smaller sensors
    cycle with fresh shuffles.
    """
    if not sizes:
        raise ConfigError("make_schedule needs at least one sensor")
    for sid, n in sizes.items():
        if n < 1:
            raise ConfigError(f"sensor {sid} has an empty dataset")
    n_max = max(sizes.values())
    if base_batch > n_max:
        raise ConfigError(f"base_batch {base_batch} exceeds the largest sensor's {n_max} samples")
    steps = int(math.ceil(n_max / base_batch))
    out = {}
    for sid, n in sorted(sizes.items()):
        b = max(1, int(round(base_batch * n / n_max)))
        out[sid] = ScheduleEntry(batch_size=b, lr_scale=b / base_batch, steps_per_epoch=steps)
    return out


def lr_at(step, cfg, steps_per_epoch):
    """Learning-rate multiplier: linear warmup from warmup_lr/base_lr up to
    1.0 over the warmup epochs, then a step decay by gamma at each
    milestone epoch."""
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    if warmup_steps > 0 and step < warmup_steps:
        r0 = cfg.warmup_lr / cfg.base_lr
        return r0 + (1.0 - r0) * (step / warmup_steps)
    epoch = step // steps_per_epoch
    passed = sum(1 for m in cfg.milestones if epoch >= m)
    return cfg.gamma ** passed


def owner_sensor(name):
    """Sensor id owning a parameter, or None for shared parameters."""
    for prefix in ("embedder.", "decoder."):
        if name.startswith(prefix):
            return int(name[len(prefix):].split(".", 1)[0])
    return None


def adamw_step(params, m, v, step, base_lr, lr_mult, cfg, lr_scales):
    """One decoupled-weight-decay Adam update over all parameters.

    Missing gradients count as zero so moments and decay advance uniformly;
    weight decay applies to matrices and kernels (ndim >= 2) only.
    """
    t = step + 1
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        sid = owner_sensor(name)
        lr = base_lr * lr_mult * (1.0 if sid is None else lr_scales[sid])
        m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
        v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.eps)
        if p.data.ndim >= 2:
            update = update + cfg.weight_decay * p.data
        p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)
        p.grad = None


class SensorSampler:
    """Cycling sampler over one sensor's records (or, on STREAM_TASK, the
    task samples) with a fresh functional shuffle per cycle, so position +
    cycle fully determine the stream."""

    def __init__(self, records, batch_size, seed, sensor_id, stream=STREAM_DATA):
        self.records = records
        self.batch_size = batch_size
        self.seed = seed
        self.sensor_id = sensor_id
        self.stream = stream
        self.cycle = 0
        self.pos = 0

    def _order(self):
        rng = stream_rng(self.seed, self.stream, self.sensor_id, self.cycle)
        return rng.permutation(len(self.records))

    def next_batch(self):
        order = self._order()
        out = []
        while len(out) < self.batch_size:
            if self.pos >= len(order):
                self.cycle += 1
                self.pos = 0
                order = self._order()
            out.append(self.records[order[self.pos]])
            self.pos += 1
        return out


class TrainState:
    """Everything but sampler positions that bit-exact resumption needs;
    moments exist for trainable parameters, RNGs only in pretraining."""

    def __init__(self, params, rngs=None):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items() if p.requires_grad}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items() if p.requires_grad}
        self.step = 0
        self.rngs = rngs or {}  # stream name -> generator, stored as rng.<name>
        self.history = []


class Trainer:
    """A step draws a batch from every sampler, evaluates the loss on a
    fresh tape, checks that it is finite, runs backward, and applies AdamW
    to the parameters that require grad; a NumericError on the way writes
    a diagnostic dump.  Each step logs step, epoch, lr, loss_total and the
    loss's stats."""

    def __init__(self, dataset, model_cfg, train_cfg, log_path=None, dump_dir=None):
        """Pretraining on every sensor of `dataset`."""
        self.dataset = dataset
        self.model_cfg = model_cfg
        sizes = {sid: len(recs) for sid, recs in dataset.by_sensor.items()}
        self.schedule = make_schedule(sizes, train_cfg.base_batch)
        seed = train_cfg.seed
        state = TrainState(init_params(dataset.registry, model_cfg, seed),
                           {"mask": stream_rng(seed, STREAM_MASK),
                            "cross": stream_rng(seed, STREAM_CROSS)})

        def loss(params, per_sensor):
            total, stats, reports = round_loss(
                params, model_cfg, dataset, MultisensorBatch(per_sensor, state.step),
                state.rngs["mask"], state.rngs["cross"])
            sensors = {str(k): val for k, val in stats["sensors"].items()}
            return total, {**stats, "sensors": sensors, "routing": _routing_summary(reports)}

        samplers = {sid: SensorSampler(dataset.by_sensor[sid], entry.batch_size, seed, sid)
                    for sid, entry in self.schedule.items()}
        lr_scales = {sid: entry.lr_scale for sid, entry in self.schedule.items()}
        steps_per_epoch = next(iter(self.schedule.values())).steps_per_epoch
        self._bind(loss, samplers, lr_scales, train_cfg, state, steps_per_epoch,
                   log_path, dump_dir)

    @classmethod
    def for_loss(cls, loss, samplers, lr_scales, train_cfg, params, steps_per_epoch,
                 log_path=None, dump_dir=None):
        """A trainer of `params` on `loss(params, batch) -> (loss, stats)`,
        where `batch` maps each sampler's key to its next batch.  It builds
        no pretraining state, so it cannot save or resume."""
        trainer = cls.__new__(cls)
        trainer._bind(loss, samplers, lr_scales, train_cfg, TrainState(params),
                      steps_per_epoch, log_path, dump_dir)
        return trainer

    def _bind(self, loss, samplers, lr_scales, train_cfg, state, steps_per_epoch,
              log_path, dump_dir):
        self.loss = loss
        self.samplers = samplers
        self.lr_scales = lr_scales
        self.cfg = train_cfg
        self.state = state
        self.trainable = {k: p for k, p in state.params.items() if p.requires_grad}
        self.steps_per_epoch = steps_per_epoch
        self.log_path = log_path
        self.dump_dir = dump_dir
        self._log_mode = "w"  # a fresh run replaces an old log; a resumed one extends it
        self._log_file = None

    # -- logging -----------------------------------------------------------
    def _log(self, record):
        """Write `record` to the log; None only opens the log."""
        if self.log_path is None:
            return
        if self._log_file is None:
            self._log_file = open(self.log_path, self._log_mode, encoding="utf-8")
            self._log_mode = "a"
        if record is not None:
            self._log_file.write(json.dumps(json_safe(record), sort_keys=True, allow_nan=False)
                                 + "\n")
            self._log_file.flush()

    def close(self):
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    # -- stepping ----------------------------------------------------------
    @property
    def epoch(self):
        return self.state.step // self.steps_per_epoch

    def next_round(self):
        return {key: self.samplers[key].next_batch() for key in sorted(self.samplers)}

    def train_step(self):
        state = self.state
        batch = self.next_round()
        lr_mult = lr_at(state.step, self.cfg, self.steps_per_epoch)
        with T.fresh_tape():
            try:
                loss, stats = self.loss(state.params, batch)
                if not np.isfinite(loss.data):
                    raise NumericError("non-finite loss", diagnostics={"stats": stats})
                T.backward(loss)
            except NumericError as e:
                raise self._dump_and_wrap(e, batch) from e
            # the tape is released after the update: released before it, glibc
            # trims the freed heap and every round faults it back in
            adamw_step(self.trainable, state.m, state.v, state.step,
                       self.cfg.base_lr, lr_mult, self.cfg, self.lr_scales)
        metrics = {
            "step": state.step,
            "epoch": self.epoch,
            "lr": self.cfg.base_lr * lr_mult,
            **stats,
            "loss_total": float(loss.data),
        }
        state.history.append(metrics["loss_total"])
        state.step += 1
        self._log(metrics if state.step % self.cfg.log_every == 0 else None)
        return metrics

    def train_epochs(self, epochs=None, checkpoint_dir=None):
        epochs = self.cfg.epochs if epochs is None else epochs
        target = epochs * self.steps_per_epoch
        last = None
        final = checkpoint_dir and os.path.join(checkpoint_dir, "checkpoint-final.msgm")
        while self.state.step < target:
            last = self.train_step()
            if checkpoint_dir and self.state.step % self.steps_per_epoch == 0:
                epoch = os.path.join(checkpoint_dir, f"checkpoint-epoch{self.epoch}.msgm")
                if self.state.step == target:  # the run ends here: both files, one encoding
                    self.save(epoch, final)
                    return last
                if self.epoch % self.cfg.checkpoint_every == 0:
                    self.save(epoch)
        if checkpoint_dir:
            self.save(final)
        return last

    def _dump_and_wrap(self, err, batch):
        diag = {**err.diagnostics, "step": self.state.step,
                "round_sensors": {str(k): len(val) for k, val in batch.items()}}
        if self.dump_dir:
            path = os.path.join(self.dump_dir, f"diagnostic-step{self.state.step}.json")
            write_json(path, {"error": str(err), "diagnostics": diag})
            diag["dump_path"] = path
        return NumericError(str(err), diagnostics=diag)

    # -- persistence ---------------------------------------------------------
    def _entries(self):
        """The checkpoint table that `save` writes and `resume` checks, in file order."""
        state, sids = self.state, sorted(self.samplers)
        named = {k: p.data for k, p in state.params.items()}
        named.update({f"opt.m.{k}": arr for k, arr in state.m.items()})
        named.update({f"opt.v.{k}": arr for k, arr in state.v.items()})
        named["meta.step"] = np.asarray(state.step, dtype=np.int64)
        named.update(_pins(self.dataset.registry, self.model_cfg))
        named.update({f"rng.{k}": ckpt.rng_to_u8(gen) for k, gen in state.rngs.items()})
        named["sampler.sensor_ids"] = np.asarray(sids, dtype=np.int64)
        named["sampler.cycle"] = np.asarray([self.samplers[s].cycle for s in sids], dtype=np.int64)
        named["sampler.pos"] = np.asarray([self.samplers[s].pos for s in sids], dtype=np.int64)
        return named

    def save(self, path, *copies):
        """Write the state to `path`, then its bytes to each of `copies`, each file
        atomically; a non-finite float entry raises NumericError before any write."""
        named = self._entries()
        for k, arr in named.items():
            if arr.dtype.kind == "f" and not np.isfinite(arr).all():
                raise NumericError(f"checkpoint entry {k!r} is not finite")
        blob = ckpt.save_tensors(path, named)
        for other in copies:
            ckpt.write_atomic(other, blob)

    def resume(self, path):
        named = ckpt.load_tensors(path)
        check_compatible(named, self._entries(), self.model_cfg)
        sids, stored = sorted(self.samplers), [int(v) for v in named["sampler.sensor_ids"]]
        if stored != sids:
            raise CompatibilityError(f"checkpoint samplers are for sensors {stored}, not {sids}")
        for k, p in self.state.params.items():
            p.data = named[k]
        for k in self.state.m:
            self.state.m[k], self.state.v[k] = named[f"opt.m.{k}"], named[f"opt.v.{k}"]
        self.state.step = int(named["meta.step"])
        self.state.rngs = {k: ckpt.rng_from_u8(named[f"rng.{k}"]) for k in self.state.rngs}
        for sid, cycle, pos in zip(sids, named["sampler.cycle"], named["sampler.pos"]):
            self.samplers[sid].cycle, self.samplers[sid].pos = int(cycle), int(pos)
        # the log keeps the steps before the checkpoint, so each step the
        # resumed run takes is logged once; a torn last line is dropped
        self._log_mode = "a"
        if self.log_path is not None and os.path.exists(self.log_path):
            self.close()
            with open(self.log_path, "rb") as f:
                kept = [line for n, line in enumerate(f, 1) if line.endswith(b"\n")
                        and _logged_step(line, f"{self.log_path}:{n}") < self.state.step]
            ckpt.write_atomic(self.log_path, b"".join(kept))


def _pins(registry, model_cfg):
    """The entries that tie a checkpoint to its sensor registry and model."""
    return {"meta.registry": ckpt.registry_digest(registry),
            "meta.model_config": ckpt.json_to_u8(model_cfg.to_dict())}


def check_compatible(named, expected, model_cfg):
    """Raise CompatibilityError unless the checkpoint tensors `named` hold, checked
    in order, the registry digest of `expected` (which holds `_pins`), the
    architecture of `model_cfg`, and every entry of `expected` at its dtype and shape
    (a uint8, byte-encoded entry at any length); objective settings may differ."""
    if not np.array_equal(named.get("meta.registry"), expected["meta.registry"]):
        raise CompatibilityError("checkpoint was trained against a different sensor registry")
    stored_cfg = ckpt.u8_to_json(named["meta.model_config"]) if "meta.model_config" in named else {}
    if any(stored_cfg.get(k) != getattr(model_cfg, k) for k in model_cfg.ARCHITECTURE):
        raise CompatibilityError("checkpoint model configuration does not match this run")
    for k, want in expected.items():
        got = named.get(k)
        if got is None:
            raise CompatibilityError(f"checkpoint is missing entry {k!r}")
        if got.dtype != want.dtype or (got.shape != want.shape and want.dtype != np.uint8):
            raise CompatibilityError(f"checkpoint entry {k!r} is {got.dtype} of shape "
                                     f"{got.shape}, expected {want.dtype} of shape {want.shape}")


def load_pretrained(path, registry, model_cfg):
    """Parameters-only load for transfer, evaluation, and rendering."""
    named = ckpt.load_tensors(path)
    params = init_params(registry, model_cfg, seed=0)
    expected = {k: p.data for k, p in params.items()}
    check_compatible(named, {**_pins(registry, model_cfg), **expected}, model_cfg)
    for k, p in params.items():
        p.data = named[k]
    return params


def _logged_step(line, where):
    """The integer step of the step-log line `line`, read at `where`."""
    try:
        step = json.loads(line)["step"]
    except (ValueError, TypeError, KeyError):
        step = None
    if type(step) is not int:
        raise DataFormatError(f'{where}: expected a JSON object with an integer "step"')
    return step


def _routing_summary(reports):
    counts = np.array([r.expert_counts for r in reports], dtype=np.int64)
    return {"dropped": sum(r.dropped for r in reports),
            "expert_tokens": counts.sum(axis=0).tolist() if reports else []}


def json_safe(obj):
    """`obj` with NumPy scalars and arrays as Python values, tuples as lists,
    keys as strings and non-finite floats as the strings "inf", "-inf" and
    "nan", so that `json.dumps(..., allow_nan=False)` accepts it."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else str(value)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return json_safe(obj.tolist())
    return obj


def write_json(path, obj):
    """Write `json_safe(obj)` to `path` atomically as strict, indented JSON."""
    ckpt.write_atomic(path, json.dumps(json_safe(obj), indent=2, allow_nan=False))
