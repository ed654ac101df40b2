"""Sensor registry, synthetic multisensor data, and the dataset file.

Images are channel-first (C, W, H) float32, each channel of each sample
standardized to mean 0 and std 1.  Paired sensors hold colocated
samples of identical W x H; the partner image is a deterministic
transform of the source so cross-sensor prediction has learnable signal.
A dataset is saved as one checkpoint container (see `checkpoint`).
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .checkpoint import (STREAM_PAIR, STREAM_SYNTH, json_to_u8, load_tensors, save_tensors,
                         stream_rng, u8_to_json)
from .errors import CheckpointError, ConfigError, DataFormatError, ShapeError
from .metrics import gaussian_band


@dataclass(frozen=True)
class SensorSpec:
    """One registered modality.

    Args:
        sensor_id: dense small integer, unique within a registry.
        name: short identifier, no whitespace.
        channels: number of image channels, >= 1.
        paired_with: sensor_id of the colocated partner, or None.
    """

    sensor_id: int
    name: str
    channels: int
    paired_with: Optional[int] = None


class SensorRegistry:
    """Immutable, validated collection of SensorSpecs, iterated in id order."""

    def __init__(self, specs):
        specs = sorted(specs, key=lambda s: s.sensor_id)
        ids = [s.sensor_id for s in specs]
        if ids != list(range(len(specs))):
            raise ConfigError(f"sensor ids must be dense 0..N-1, got {ids}")
        for s in specs:
            if s.channels < 1:
                raise ConfigError(f"sensor {s.name!r} has zero channels")
            if not s.name or any(c.isspace() for c in s.name):
                raise ConfigError(f"sensor name must be non-empty without whitespace: {s.name!r}")
            if s.paired_with is not None:
                if s.paired_with == s.sensor_id:
                    raise ConfigError(f"sensor {s.name!r} paired with itself")
                if not 0 <= s.paired_with < len(specs):
                    raise ConfigError(f"sensor {s.name!r} paired with unknown id {s.paired_with}")
                partner = specs[s.paired_with]
                if partner.paired_with != s.sensor_id:
                    raise ConfigError(
                        f"pairing must be symmetric: {s.name!r} -> {partner.name!r} not reciprocated"
                    )
        if len({s.name for s in specs}) != len(specs):
            raise ConfigError("sensor names must be unique")
        self._specs = tuple(specs)

    def __len__(self):
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs)

    def __getitem__(self, sensor_id):
        return self._specs[sensor_id]

    def __eq__(self, other):
        return isinstance(other, SensorRegistry) and self._specs == other._specs

    def by_name(self, name):
        for s in self._specs:
            if s.name == name:
                return s
        raise ConfigError(f"no sensor named {name!r}")


def desk_registry():
    """Five modalities mirroring a typical multisensor corpus: optical RGB
    (unpaired), a 2-channel radar paired with a 14-channel multispectral
    sensor, and a 1-channel elevation sensor paired with aerial RGB."""
    return SensorRegistry([
        SensorSpec(0, "rgb", 3),
        SensorSpec(1, "sar", 2, paired_with=2),
        SensorSpec(2, "ms", 14, paired_with=1),
        SensorSpec(3, "dsm", 1, paired_with=4),
        SensorSpec(4, "aerial", 3, paired_with=3),
    ])


def pair_registry():
    """One colocated pair: a 2-channel radar-like and a 3-channel optical."""
    return SensorRegistry([
        SensorSpec(0, "sar", 2, paired_with=1),
        SensorSpec(1, "optical", 3, paired_with=0),
    ])


def single_registry():
    """One unpaired 3-channel sensor (degenerate single-modality mode)."""
    return SensorRegistry([SensorSpec(0, "rgb", 3)])


REGISTRY_PRESETS = {
    "desk": desk_registry,
    "pair": pair_registry,
    "single": single_registry,
}


def registry_preset(name):
    try:
        return REGISTRY_PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown registry preset {name!r}, expected one of {sorted(REGISTRY_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class SampleRecord:
    sample_id: int
    sensor_id: int
    partner_sample_id: Optional[int] = None


@dataclass(frozen=True)
class MultisensorBatch:
    """One optimization round: every registered sensor contributes a batch."""

    per_sensor: dict  # sensor_id -> list of SampleRecord
    round_index: int


class Dataset:
    """Immutable bundle of records plus their image arrays.

    record.sample_id indexes into `images`; partner ids cross-link the
    colocated sample of the paired sensor.
    """

    def __init__(self, registry, width, height, records, images):
        self.registry = registry
        self.width = int(width)
        self.height = int(height)
        self.records = tuple(records)
        self.images = tuple(images)
        self._validate()
        by_sensor = {s.sensor_id: [] for s in registry}
        for r in self.records:
            by_sensor[r.sensor_id].append(r)
        self.by_sensor = {k: tuple(v) for k, v in by_sensor.items()}

    def _validate(self):
        if len(self.records) != len(self.images):
            raise DataFormatError("record/image count mismatch")
        for i, (r, img) in enumerate(zip(self.records, self.images)):
            if r.sample_id != i:
                raise DataFormatError(f"sample ids must be dense, got {r.sample_id} at {i}")
            if not 0 <= r.sensor_id < len(self.registry):
                raise DataFormatError(f"sample {i}: unknown sensor {r.sensor_id}")
            spec = self.registry[r.sensor_id]
            expect = (spec.channels, self.width, self.height)
            if img.shape != expect:
                raise ShapeError(f"sample {r.sample_id}: image shape {img.shape} != {expect}")
            if img.dtype != np.float32:
                raise DataFormatError(f"sample {r.sample_id}: dtype {img.dtype}, expected float32")
            if not np.all(np.isfinite(img)):
                raise DataFormatError(f"sample {r.sample_id}: non-finite values")
            if r.partner_sample_id is not None:
                if not 0 <= r.partner_sample_id < len(self.records):
                    raise DataFormatError(
                        f"sample {r.sample_id}: partner id {r.partner_sample_id} missing"
                    )
                partner = self.records[r.partner_sample_id]
                if partner.sensor_id != spec.paired_with:
                    raise DataFormatError(
                        f"sample {r.sample_id}: partner belongs to sensor "
                        f"{partner.sensor_id}, expected {spec.paired_with}"
                    )
                if partner.partner_sample_id != r.sample_id:
                    raise DataFormatError(f"sample {r.sample_id}: partner link not symmetric")

    def __len__(self):
        return len(self.records)

    def image(self, sample_id):
        return self.images[sample_id]

    def partner_record(self, record):
        if record.partner_sample_id is None:
            return None
        return self.records[record.partner_sample_id]


def _smooth_field(channels, bands, rng):
    """White noise blurred to ~1/8 image scale, plus one broader field shared
    across channels so they stay correlated and worth modeling jointly; each
    blur is band_w @ x @ band_h.T, a (W, H) `gaussian_band` pair of `bands`."""
    (fine_w, fine_h), (broad_w, broad_h) = bands
    noise = fine_w @ rng.standard_normal((channels, len(fine_w), len(fine_h))) @ fine_h.T
    common = broad_w @ rng.standard_normal((len(fine_w), len(fine_h))) @ broad_h.T
    return noise + 0.5 * common[None, :, :]


def _standardize(x):
    # exact per-sample, per-channel standardization to mean 0 and std 1
    mean = x.mean(axis=(1, 2), keepdims=True)
    std = np.maximum(x.std(axis=(1, 2), keepdims=True), 1e-8)
    return ((x - mean) / std).astype(np.float32)


def pair_transform_weights(registry, src_id):
    """Fixed channel-mixing matrix and bias mapping a source sensor's image
    to its partner's channel space.  A property of the sensor pair alone,
    independent of any dataset seed."""
    spec = registry[src_id]
    if spec.paired_with is None:
        raise ConfigError(f"sensor {spec.name!r} is unpaired")
    dst = registry[spec.paired_with]
    rng = stream_rng(7041, STREAM_PAIR, src_id, dst.sensor_id)
    mix = rng.standard_normal((dst.channels, spec.channels)) / np.sqrt(spec.channels)
    bias = 0.1 * rng.standard_normal(dst.channels)
    return mix.astype(np.float64), bias.astype(np.float64)


def partner_transform(registry, src_id, image):
    """Deterministic partner image for a paired source sample: fixed channel
    mix + bias, tanh, then standardized per channel."""
    mix, bias = pair_transform_weights(registry, src_id)
    y = np.tanh(np.einsum("oc,cwh->owh", mix, image.astype(np.float64)) + bias[:, None, None])
    return _standardize(y)


def gen_synthetic(registry, n_per_sensor, width, height, seed):
    """Deterministic synthetic dataset of `n_per_sensor` samples for every
    sensor.  Paired sensors are generated jointly, the lower-id sensor
    acting as the source of each colocated pair."""
    if width < 1 or height < 1:
        raise ConfigError(f"image size must be >= 1, got {width}x{height}")
    if n_per_sensor < 1:
        raise ConfigError(f"n_per_sensor must be >= 1, got {n_per_sensor}")

    sigma = max(min(width, height) / 8.0, 1.0)  # radius: SciPy's default 4 sigma
    bands = [[gaussian_band(n, s, int(4.0 * s + 0.5)) for n in (width, height)]
             for s in (sigma, 2.0 * sigma)]
    records, images = [], []

    def add(sensor_id, img, partner=None):
        records.append(SampleRecord(len(records), sensor_id, partner))
        images.append(img)
        return records[-1].sample_id

    for spec in registry:
        if spec.paired_with is not None and spec.paired_with < spec.sensor_id:
            continue  # pair handled from its lower-id side
        rng = stream_rng(seed, STREAM_SYNTH, spec.sensor_id)
        for _ in range(n_per_sensor):
            src = _standardize(_smooth_field(spec.channels, bands, rng))
            if spec.paired_with is None:
                add(spec.sensor_id, src)
            else:
                dst_img = partner_transform(registry, spec.sensor_id, src)
                a = add(spec.sensor_id, src)
                b = add(spec.paired_with, dst_img)
                records[a] = replace(records[a], partner_sample_id=b)
                records[b] = replace(records[b], partner_sample_id=a)

    return Dataset(registry, width, height, records, images)


def save_manifest(dataset, path):
    """Write the dataset as one checkpoint container, atomically:
    `sensors`, one JSON row per spec in `SensorSpec` field order; `size`,
    [W, H]; `records`, (N, 2) rows of [sensor_id, partner or -1]; and one
    f32 `image.<sample_id>` per sample.  The round trip is bit exact."""
    # per-channel 0.0 and 1.0 lists end each row, where files once kept
    # norm stats, so old and new files stay compatible
    named = {
        "sensors": json_to_u8([[s.sensor_id, s.name, s.channels, s.paired_with,
                                [0.0] * s.channels, [1.0] * s.channels]
                               for s in dataset.registry]),
        "size": np.array([dataset.width, dataset.height], dtype=np.int64),
        "records": np.array([[r.sensor_id, -1 if r.partner_sample_id is None
                              else r.partner_sample_id] for r in dataset.records],
                            dtype=np.int64).reshape(-1, 2),
    }
    for r, img in zip(dataset.records, dataset.images):
        named[f"image.{r.sample_id}"] = np.asarray(img, dtype=np.float32)
    save_tensors(path, named)


def load_manifest(path):
    """Read a dataset written by `save_manifest`.  Every failure, from an
    unreadable or corrupt container to a record the registry rejects, is
    a DataFormatError."""
    try:
        named = load_tensors(path)
        registry = SensorRegistry(SensorSpec(*row[:4]) for row in u8_to_json(named["sensors"]))
        width, height = (int(v) for v in named["size"])
        records = [SampleRecord(i, int(sid), None if pair < 0 else int(pair))
                   for i, (sid, pair) in enumerate(named["records"])]
        images = [named[f"image.{i}"] for i in range(len(records))]
        return Dataset(registry, width, height, records, images)
    except CheckpointError as e:
        raise DataFormatError(
            f"manifest: {e}; `crossmim gen-data` regenerates the dataset file") from e
    except KeyError as e:
        raise DataFormatError(f"manifest: missing entry {e}") from e
    except (ConfigError, DataFormatError, ShapeError, TypeError, ValueError) as e:
        raise DataFormatError(f"manifest: {e}") from e
