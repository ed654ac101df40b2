"""Synthetic multisensor data: registries, colocated pairs, the dataset file.

Generates the five-sensor desk dataset, shows how paired samples link to
each other, and round-trips everything through the on-disk dataset file.
"""

import os
import tempfile

import numpy as np

from crossmim.sensors import (desk_registry, gen_synthetic, load_manifest,
                              partner_transform, save_manifest)


def main():
    registry = desk_registry()
    print("== registry ==")
    for s in registry:
        pairing = f"paired with {registry[s.paired_with].name}" if s.paired_with is not None else "unpaired"
        print(f"  sensor {s.sensor_id} {s.name:12s} {s.channels} channels, {pairing}")

    dataset = gen_synthetic(registry, n_per_sensor=4, width=32, height=32, seed=7)
    print(f"\n== dataset: {len(dataset)} samples of 32x32 ==")
    for sid, records in sorted(dataset.by_sensor.items()):
        img = dataset.image(records[0].sample_id)
        print(f"  sensor {sid}: {len(records)} samples, image shape {img.shape}, "
              f"mean {img.mean():+.4f}, std {img.std():.4f}")

    print("\n== colocated pairs ==")
    linked = next(r for r in dataset.records if r.partner_sample_id is not None)
    partner = dataset.records[linked.partner_sample_id]
    print(f"  sample {linked.sample_id} (sensor {linked.sensor_id}) <-> "
          f"sample {partner.sample_id} (sensor {partner.sensor_id})")
    # the partner image is a fixed channel mix of the source, renormalized
    mixed = partner_transform(dataset.registry, linked.sensor_id,
                              dataset.image(linked.sample_id))
    exact = np.array_equal(mixed, dataset.image(partner.sample_id))
    print(f"  partner equals the declared channel mix of its source: {exact}")

    print("\n== dataset file round trip ==")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.msgfm")
        save_manifest(dataset, path)
        size = os.path.getsize(path)
        loaded = load_manifest(path)
        same = all(np.array_equal(dataset.image(r.sample_id), loaded.image(r.sample_id))
                   for r in dataset.records)
        print(f"  wrote data.msgfm, {size} bytes")
        print(f"  {len(loaded)} samples restored, all images bit-identical: {same}")


if __name__ == "__main__":
    main()
