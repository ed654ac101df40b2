"""Sensor registry, synthetic corpus generation, and dataset file round trips."""

import os

import numpy as np
import pytest

import crossmim.checkpoint as ckpt
from crossmim.errors import ConfigError, DataFormatError, ShapeError
from crossmim.sensors import (Dataset, SampleRecord, SensorRegistry, SensorSpec,
                              desk_registry, gen_synthetic, load_manifest,
                              pair_registry, pair_transform_weights,
                              partner_transform, registry_preset,
                              save_manifest, single_registry)


@pytest.mark.parametrize("specs", [
    [SensorSpec(0, "a", 1), SensorSpec(2, "b", 1)],               # gap in ids
    [SensorSpec(0, "a", 0)],                                      # no channels
    [SensorSpec(0, "bad name", 1)],                               # whitespace
    [SensorSpec(0, "a", 1, paired_with=0)],                       # self pair
    [SensorSpec(0, "a", 1, paired_with=5)],                       # unknown pair
    [SensorSpec(0, "a", 1, paired_with=1), SensorSpec(1, "b", 1)],  # one-sided
    [SensorSpec(0, "a", 1), SensorSpec(1, "a", 1)],               # dup names
])
def test_registry_rejects_bad_specs(specs):
    with pytest.raises(ConfigError):
        SensorRegistry(specs)


def test_registry_lookup_and_partner():
    reg = desk_registry()
    assert len(reg) == 5
    assert [s.channels for s in reg] == [3, 2, 14, 1, 3]
    assert reg.by_name("ms").sensor_id == 2
    assert reg[reg[1].paired_with].name == "ms"
    assert reg[reg[2].paired_with].name == "sar"
    assert reg[0].paired_with is None
    with pytest.raises(ConfigError):
        reg.by_name("missing")


def test_registry_presets():
    assert len(registry_preset("desk")) == 5
    assert len(registry_preset("pair")) == 2
    assert len(registry_preset("single")) == 1
    with pytest.raises(ConfigError):
        registry_preset("nope")


def test_gen_synthetic_deterministic_and_seed_sensitive():
    reg = pair_registry()
    a = gen_synthetic(reg, 3, 16, 16, seed=7)
    b = gen_synthetic(reg, 3, 16, 16, seed=7)
    c = gen_synthetic(reg, 3, 16, 16, seed=8)
    assert a.records == b.records
    for x, y in zip(a.images, b.images):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a.images, c.images))


def test_gen_synthetic_counts_and_shapes():
    reg = desk_registry()
    ds = gen_synthetic(reg, 3, 16, 16, seed=1)
    assert {k: len(v) for k, v in ds.by_sensor.items()} == {0: 3, 1: 3, 2: 3, 3: 3, 4: 3}
    for r in ds.records:
        assert ds.image(r.sample_id).shape == (reg[r.sensor_id].channels, 16, 16)
        assert ds.image(r.sample_id).dtype == np.float32


def test_gen_synthetic_standardizes_every_channel():
    ds = gen_synthetic(desk_registry(), 4, 16, 16, seed=3)
    for img in ds.images:
        np.testing.assert_allclose(img.mean(axis=(1, 2)), 0.0, atol=1e-4)
        np.testing.assert_allclose(img.std(axis=(1, 2)), 1.0, rtol=1e-4)


def test_gen_synthetic_pairing_links_and_transform():
    reg = pair_registry()
    ds = gen_synthetic(reg, 3, 16, 16, seed=5)
    for r in ds.records:
        partner = ds.partner_record(r)
        assert partner is not None
        assert partner.sensor_id == reg[r.sensor_id].paired_with
        assert partner.partner_sample_id == r.sample_id
    # partner images are the deterministic transform of their source
    for r in ds.records:
        if r.sensor_id == 0:
            got = ds.image(r.partner_sample_id)
            expect = partner_transform(reg, 0, ds.image(r.sample_id))
            np.testing.assert_array_equal(got, expect)


def test_gen_synthetic_unpaired_has_no_partner():
    ds = gen_synthetic(single_registry(), 3, 16, 16, seed=2)
    assert all(r.partner_sample_id is None for r in ds.records)


def test_gen_synthetic_validation():
    with pytest.raises(ConfigError):
        gen_synthetic(pair_registry(), 0, 16, 16, seed=1)


def test_pair_transform_weights_fixed_and_guarded():
    reg = pair_registry()
    m1, b1 = pair_transform_weights(reg, 0)
    m2, b2 = pair_transform_weights(reg, 0)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(b1, b2)
    assert m1.shape == (3, 2) and b1.shape == (3,)
    with pytest.raises(ConfigError):
        pair_transform_weights(single_registry(), 0)


def _tiny_dataset():
    reg = pair_registry()
    records = [SampleRecord(0, 0, 1), SampleRecord(1, 1, 0)]
    images = [np.zeros((2, 8, 8), np.float32), np.zeros((3, 8, 8), np.float32)]
    return reg, records, images


def test_dataset_validation_errors():
    reg, records, images = _tiny_dataset()
    Dataset(reg, 8, 8, records, images)  # sanity: the base case is valid
    with pytest.raises(DataFormatError):
        Dataset(reg, 8, 8, records, images[:1])
    with pytest.raises(DataFormatError):
        Dataset(reg, 8, 8, [records[0], SampleRecord(5, 1, 0)], images)
    with pytest.raises(ShapeError):
        Dataset(reg, 8, 8, records, [np.zeros((2, 8, 9), np.float32), images[1]])
    with pytest.raises(DataFormatError, match="float32"):
        Dataset(reg, 8, 8, records, [images[0].astype(np.float64), images[1]])
    bad = images[0].copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataFormatError):
        Dataset(reg, 8, 8, records, [bad, images[1]])
    with pytest.raises(DataFormatError):
        Dataset(reg, 8, 8, [SampleRecord(0, 0, 7), records[1]], images)
    with pytest.raises(DataFormatError):  # partner from the wrong sensor
        Dataset(reg, 8, 8, [SampleRecord(0, 0, 0), SampleRecord(1, 1, 0)],
                [images[0], images[1]])
    with pytest.raises(DataFormatError):  # asymmetric link
        Dataset(reg, 8, 8, [SampleRecord(0, 0, 1), SampleRecord(1, 1, None)],
                images)


def test_dataset_rejects_unknown_sensor_id():
    reg, _, _ = _tiny_dataset()
    for sid in (-1, 2):  # -1 would otherwise index the registry from the end
        with pytest.raises(DataFormatError, match=f"unknown sensor {sid}"):
            Dataset(reg, 8, 8, [SampleRecord(0, sid)], [np.zeros((3, 8, 8), np.float32)])


def test_manifest_round_trip_is_bit_exact(tmp_path):
    for registry in (desk_registry(), pair_registry(), single_registry()):
        ds = gen_synthetic(registry, 2, 16, 16, seed=9)
        path = str(tmp_path / "corpus.msgfm")
        save_manifest(ds, path)
        assert os.listdir(tmp_path) == ["corpus.msgfm"]  # one file, no sidecar
        back = load_manifest(path)
        assert back.registry == ds.registry
        assert (back.width, back.height) == (ds.width, ds.height)
        assert back.records == ds.records
        for a, b in zip(ds.images, back.images):
            assert b.dtype == np.float32
            np.testing.assert_array_equal(a, b)


def _saved(tmp_path):
    ds = gen_synthetic(pair_registry(), 2, 8, 8, seed=4)
    path = str(tmp_path / "corpus.msgfm")
    save_manifest(ds, path)
    return path


def _rewrite(path, name, value=None):
    """Replace one entry of the container, or drop it when `value` is None,
    and save with a valid checksum, so only the dataset checks can catch
    the change."""
    named = ckpt.load_tensors(path)
    if value is None:
        del named[name]
    else:
        named[name] = value
    ckpt.save_tensors(path, named)


OLD_TEXT_MANIFEST = """MSGFM-DATA v1
blob corpus.bin 768
size 8 8
sensors 1
sensor 0 rgb 3 - 0.0,0.0,0.0 1.0,1.0,1.0
samples 1
sample 0 0 - 0 192
"""


def test_manifest_rejects_bad_header(tmp_path):
    path = str(tmp_path / "corpus.msgfm")
    open(path, "w").write(OLD_TEXT_MANIFEST)
    with pytest.raises(DataFormatError, match="magic.*crossmim gen-data"):
        load_manifest(path)


def test_manifest_rejects_version_mismatch(tmp_path):
    path = _saved(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[4] += 1
    open(path, "wb").write(bytes(raw))
    with pytest.raises(DataFormatError, match="version"):
        load_manifest(path)


def test_manifest_rejects_truncated_blob(tmp_path):
    path = _saved(tmp_path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-8])
    with pytest.raises(DataFormatError, match="checksum"):
        load_manifest(path)
    open(path, "wb").write(data[:6])
    with pytest.raises(DataFormatError, match="truncated"):
        load_manifest(path)


def test_manifest_rejects_flipped_payload_byte(tmp_path):
    path = _saved(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0x01  # inside the image payloads
    open(path, "wb").write(bytes(raw))
    with pytest.raises(DataFormatError, match="checksum"):
        load_manifest(path)


def test_manifest_rejects_missing_required_entry(tmp_path):
    path = _saved(tmp_path)
    _rewrite(path, "size")
    with pytest.raises(DataFormatError, match="missing entry 'size'"):
        load_manifest(path)


def test_manifest_rejects_count_mismatch(tmp_path):
    path = _saved(tmp_path)  # four samples: image.0 .. image.3
    _rewrite(path, "image.3")
    with pytest.raises(DataFormatError, match="missing entry 'image.3'"):
        load_manifest(path)


def test_manifest_rejects_unknown_sensor_and_asymmetric_partner(tmp_path):
    path = _saved(tmp_path)
    good = ckpt.load_tensors(path)["records"]  # rows [0, 1], [1, 0], [0, 3], [1, 2]
    for (row, col, value), match in (((0, 0, 7), "unknown sensor 7"),
                                     ((1, 1, -1), "not symmetric")):
        records = good.copy()
        records[row, col] = value
        _rewrite(path, "records", records)
        with pytest.raises(DataFormatError, match=match):
            load_manifest(path)


def test_manifest_rejects_bad_sensor_table(tmp_path):
    path = _saved(tmp_path)
    _rewrite(path, "sensors", ckpt.json_to_u8([[0, "sar", 2, 1, [0.0, 0.0], [1.0, 1.0]]]))
    with pytest.raises(DataFormatError, match="paired with unknown id 1"):
        load_manifest(path)
    _rewrite(path, "sensors", ckpt.bytes_to_u8(b"[[0,"))  # cut-off JSON
    with pytest.raises(DataFormatError, match="manifest"):
        load_manifest(path)


def test_manifest_rejects_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_manifest(str(tmp_path / "absent.msgfm"))
