"""A complete tiny pretraining run, in-process rather than via the CLI.

Trains the shared trunk on a two-sensor paired dataset for a couple of
hundred steps, prints the loss trajectory, then reconstructs one sample
both ways (self and cross) and writes an image grid next to this script.
"""

import os

import numpy as np

import crossmim.tensor as T
from crossmim.config import ModelConfig
from crossmim.masking import draw_mask, to_pixel_mask, to_token_mask
from crossmim.model import reconstruct_sample
from crossmim.render import reconstruction_grid, write_ppm
from crossmim.sensors import gen_synthetic, pair_registry
from crossmim.training import STREAM_MASK, TrainConfig, Trainer, stream_rng


def main():
    registry = pair_registry()
    dataset = gen_synthetic(registry, n_per_sensor=4, width=16, height=16, seed=21)
    mcfg = ModelConfig(width=64, depth=2, heads=4, patch_size=4, image_w=16,
                       image_h=16, mask_unit=8, moe=True, num_experts=2,
                       ffn_mult=8, p_cross=0.5)
    tcfg = TrainConfig(seed=13, base_batch=4, base_lr=1e-2, epochs=200,
                       warmup_epochs=20, warmup_lr=1e-4)

    trainer = Trainer(dataset, mcfg, tcfg)
    print("step  loss_total  mim(sar)  mim(optical)  lr")
    for step in range(200):
        m = trainer.train_step()
        if step % 40 == 0 or step == 199:
            print(f"{m['step']:4d}  {m['loss_total']:10.4f}  "
                  f"{m['sensors']['0']['mim']:8.4f}  {m['sensors']['1']['mim']:12.4f}  "
                  f"{m['lr']:.2e}")

    routing = m["routing"]
    print(f"\nrouting over the last round: expert token totals "
          f"{routing['expert_tokens']}, dropped {routing['dropped']}")

    # one sample, reconstructed into its own space and its partner's
    record = dataset.by_sensor[0][0]
    image = dataset.image(record.sample_id)
    partner = dataset.records[record.partner_sample_id]
    rng = stream_rng(99, STREAM_MASK)
    plan = draw_mask(16, 16, mcfg.mask_unit, mcfg.mask_ratio, rng)
    token_mask = to_token_mask(plan, mcfg.patch_size)
    with T.no_grad():
        self_pred, _, _ = reconstruct_sample(
            trainer.state.params, mcfg, image, record.sensor_id, token_mask,
            record.sensor_id)
        cross_pred, _, _ = reconstruct_sample(
            trainer.state.params, mcfg, image, record.sensor_id, token_mask,
            partner.sensor_id)
    pix = to_pixel_mask(plan)
    err_self = np.abs(self_pred.data - image)[:, pix].mean()
    err_cross = np.abs(cross_pred.data - dataset.image(partner.sample_id))[:, pix].mean()
    print(f"\nmasked L1, self  reconstruction: {err_self:.4f}")
    print(f"masked L1, cross reconstruction: {err_cross:.4f}")

    grid = reconstruction_grid([(image, self_pred.data, pix)])
    out = os.path.join(os.path.dirname(__file__), "tiny_pretrain_grid.ppm")
    write_ppm(out, grid)
    print(f"wrote {out} (rows: masked input / prediction / ground truth)")


if __name__ == "__main__":
    main()
