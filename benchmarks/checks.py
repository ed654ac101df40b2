"""Correctness checks run once after the timed phase of every workload.

Each check either recomputes a program output apart from the program or
tests a property the method must have.  A check returns (name, ok, detail);
an exception raised inside a check counts as that check failing.
"""

import math
import os
import traceback

import numpy as np

import reference

PRED_TOL = 1e-9  # float64 program vs float64 reference, relative to output scale
FD_EPS, FD_EPS_MIN = 1e-5, 1e-8
FD_RTOL = 1e-5
EXACT_RTOL = 1e-12


class Context:
    """What the checks need from a finished workload."""

    def __init__(self, modules, params, model_cfg, dataset, seed, run_dir,
                 losses, stored_checkpoint=None):
        self.m = modules  # short module name -> imported crossmim module
        self.params = params
        self.cfg = model_cfg
        self.dataset = dataset
        self.seed = seed
        self.run_dir = run_dir
        self.losses = losses
        self.stored_checkpoint = stored_checkpoint  # (path, {name: array}) that must match


def _routing_ok(counts, dropped, capacity, tokens):
    return max(counts) <= capacity and sum(counts) + dropped == tokens


def check_reference_forward(ctx):
    """reconstruct_sample in float64 equals the NumPy reference, routing included."""
    T, model, decoders = ctx.m["tensor"], ctx.m["model"], ctx.m["decoders"]
    cfg, ds = ctx.cfg, ctx.dataset
    p64 = {k: p.data.astype(np.float64) for k, p in ctx.params.items()}
    t64 = {k: T.Tensor(a) for k, a in p64.items()}
    rng = np.random.default_rng([ctx.seed, 101])
    gw, gh = cfg.image_w // cfg.mask_unit, cfg.image_h // cfg.mask_unit
    picks = rng.choice(len(ds.records), size=3, replace=False)
    worst, details = 0.0, []
    for idx in picks:
        rec = ds.records[int(idx)]
        grid = np.zeros(gw * gh, dtype=bool)
        grid[rng.permutation(gw * gh)[: max(1, (gw * gh) // 2)]] = True
        grid = grid.reshape(gw, gh)
        tmask = reference.token_mask(grid, cfg.mask_unit, cfg.patch_size, cfg.image_w, cfg.image_h)
        pmask = reference.pixel_mask(grid, cfg.mask_unit, cfg.image_w, cfg.image_h)
        partner = ds.partner_record(rec)
        target = rec if partner is None else partner
        image = ds.image(rec.sample_id).astype(np.float64)
        target_image = ds.image(target.sample_id).astype(np.float64)
        with T.no_grad():
            pred, _aux, reports = model.reconstruct_sample(
                t64, cfg, T.Tensor(image), rec.sensor_id, tmask, target.sensor_id)
            plan = decoders.ReconstructionPlan(
                sample_id=rec.sample_id, source_sensor=rec.sensor_id,
                target_sensor=target.sensor_id, target_image=target_image,
                pixel_loss_mask=pmask)
            loss = float(decoders.reconstruction_loss(pred, plan).data)
        ref_pred, ref_routing = reference.forward(p64, cfg, image, rec.sensor_id,
                                                  target.sensor_id, tmask)
        scale = max(1.0, float(np.abs(ref_pred).max()))
        err = float(np.abs(pred.data - ref_pred).max()) / scale
        ref_loss = reference.masked_l1(ref_pred, target_image, pmask)
        loss_err = abs(loss - ref_loss) / max(1.0, abs(ref_loss))
        got_routing = [(tuple(r.expert_counts), r.dropped) for r in reports]
        want_routing = [(counts, dropped) for counts, dropped, _cap in ref_routing]
        worst = max(worst, err, loss_err)
        if got_routing != want_routing:
            details.append(f"record {rec.sample_id}: routing {got_routing} != {want_routing}")
    ok = worst <= PRED_TOL and not details
    return ok, f"max relative error {worst:.3e} (tolerance {PRED_TOL:g}) " + "; ".join(details)


def _fixed_batch(ctx, per_sensor):
    sensors = ctx.m["sensors"]
    chosen = {sid: list(recs[:per_sensor]) for sid, recs in sorted(ctx.dataset.by_sensor.items())}
    return sensors.MultisensorBatch(per_sensor=chosen, round_index=0)


def _round(ctx, params, batch, backward):
    """One round_loss on fixed mask and cross-coin streams."""
    T, model = ctx.m["tensor"], ctx.m["model"]
    mask_rng = np.random.default_rng([ctx.seed, 102])
    cross_rng = np.random.default_rng([ctx.seed, 103])
    with T.fresh_tape():
        total, _stats, reports = model.round_loss(params, ctx.cfg, ctx.dataset, batch,
                                                  mask_rng, cross_rng, p_cross=0.5)
        if backward:
            T.backward(total)
    return float(total.data), reports


def _routing(reports):
    return [(tuple(r.expert_counts), r.dropped) for r in reports]


def check_gradient_and_routing(ctx):
    """Central finite difference along a random unit direction equals the
    backward pass on one float64 round (two samples per sensor); every MoE
    report of that round obeys its capacity and accounts for every token.

    Top-1 routing makes the loss piecewise smooth.  When a routing decision
    flips within +-eps, eps shrinks tenfold until both sides route like the
    unshifted round, and the tolerance widens by the rounding error of the
    smaller step."""
    T = ctx.m["tensor"]
    batch = _fixed_batch(ctx, per_sensor=2)
    params = {k: T.Tensor(p.data.astype(np.float64), requires_grad=True)
              for k, p in ctx.params.items()}
    loss, reports = _round(ctx, params, batch, backward=True)
    rng = np.random.default_rng([ctx.seed, 104])
    direction = {k: rng.standard_normal(p.data.shape) for k, p in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((p.grad * direction[k]).sum()) / norm
                   for k, p in params.items() if p.grad is not None)
    eps = FD_EPS
    while True:
        sides = []
        for sign in (1.0, -1.0):
            shifted = {k: T.Tensor(p.data + sign * eps * direction[k] / norm)
                       for k, p in params.items()}
            with T.no_grad():
                sides.append(_round(ctx, shifted, batch, backward=False))
        same = all(_routing(rep) == _routing(reports) for _l, rep in sides)
        if same or eps <= FD_EPS_MIN:
            break
        eps /= 10
    numeric = (sides[0][0] - sides[1][0]) / (2 * eps)
    rounding = 10 * np.finfo(np.float64).eps * abs(loss) / eps
    grad_ok = same and abs(numeric - analytic) <= FD_RTOL * abs(analytic) + rounding

    tokens = ctx.cfg.tokens
    capacity = max(1, math.floor(ctx.cfg.capacity_factor * tokens / ctx.cfg.num_experts))
    bad = [r for r in reports if not _routing_ok(r.expert_counts, r.dropped, capacity, tokens)]
    detail = (f"directional derivative fd={numeric:.10e} backward={analytic:.10e} "
              f"(eps {eps:g}{'' if same else ', routing still flips'}); "
              f"{len(reports)} routing reports, {len(bad)} violate capacity or token count")
    return grad_ok and not bad, detail


def check_adamw(ctx):
    """One adamw_step equals the closed-form AdamW update."""
    T, training = ctx.m["tensor"], ctx.m["training"]
    cfg = training.TrainConfig()
    rng = np.random.default_rng([ctx.seed, 105])
    step, base_lr, lr_mult = 6, 1e-3, 0.5
    sensor_ids = sorted(ctx.dataset.by_sensor)
    lr_scales = {sid: 0.5 + 0.25 * sid for sid in sensor_ids}
    params, grads, m, v = {}, {}, {}, {}
    for k, p in ctx.params.items():
        data = p.data.astype(np.float64)
        params[k] = T.Tensor(data.copy(), requires_grad=True)
        grads[k] = rng.standard_normal(data.shape)
        params[k].grad = grads[k].copy()
        m[k] = 1e-3 * rng.standard_normal(data.shape)
        v[k] = 1e-6 * np.abs(rng.standard_normal(data.shape))
    want = {}
    t = step + 1
    for k, p in ctx.params.items():
        head, _, rest = k.partition(".")
        scale = lr_scales[int(rest.split(".")[0])] if head in ("embedder", "decoder") else 1.0
        mk = cfg.beta1 * m[k] + (1 - cfg.beta1) * grads[k]
        vk = cfg.beta2 * v[k] + (1 - cfg.beta2) * grads[k] ** 2
        update = (mk / (1 - cfg.beta1 ** t)) / (np.sqrt(vk / (1 - cfg.beta2 ** t)) + cfg.eps)
        if p.data.ndim >= 2:
            update = update + cfg.weight_decay * params[k].data
        want[k] = (params[k].data - base_lr * lr_mult * scale * update, mk, vk)
    training.adamw_step(params, m, v, step, base_lr, lr_mult, cfg, lr_scales)
    worst = 0.0
    for k, (pk, mk, vk) in want.items():
        for got, exp in ((params[k].data, pk), (m[k], mk), (v[k], vk)):
            worst = max(worst, float(np.max(np.abs(got - exp) / (np.abs(exp) + 1e-30))))
    return worst <= EXACT_RTOL, f"max relative error {worst:.3e} over {len(want)} parameters"


def check_report_metrics(ctx):
    """MAE, PSNR and masked L1 recomputed from the predictions equal
    reconstruction_report's values."""
    T, model, masking, transfer = (ctx.m["tensor"], ctx.m["model"], ctx.m["masking"],
                                   ctx.m["transfer"])
    cfg, ds = ctx.cfg, ctx.dataset
    records = [r for sid in sorted(ds.by_sensor) for r in ds.by_sensor[sid][:2]]
    report = transfer.reconstruction_report(ctx.params, cfg, ds, records,
                                            np.random.default_rng([ctx.seed, 106]))
    rng = np.random.default_rng([ctx.seed, 106])
    per_sensor = {}
    for r in records:
        gt = ds.image(r.sample_id).astype(np.float64)
        plan = masking.draw_mask(ds.width, ds.height, cfg.mask_unit, cfg.mask_ratio, rng)
        with T.no_grad():
            pred, _aux, _rep = model.reconstruct_sample(
                ctx.params, cfg, ds.image(r.sample_id), r.sensor_id,
                masking.to_token_mask(plan, cfg.patch_size), r.sensor_id)
        pred = pred.data.astype(np.float64)
        mse = float(((pred - gt) ** 2).mean())
        span = float(gt.max() - gt.min()) or 1.0
        per_sensor.setdefault(r.sensor_id, []).append({
            "mae": float(np.abs(pred - gt).mean()),
            "psnr": 10.0 * np.log10(span * span / mse),
            "masked_l1": reference.masked_l1(
                pred, gt, reference.pixel_mask(plan.grid, cfg.mask_unit, ds.width, ds.height)),
        })
    worst = 0.0
    for sid, entries in per_sensor.items():
        for key in ("mae", "psnr", "masked_l1"):
            want = float(np.mean([e[key] for e in entries]))
            got = report[sid][key]
            worst = max(worst, abs(got - want) / max(1e-12, abs(want)))
    return worst <= 1e-9, f"max relative error {worst:.3e} over {len(records)} records"


def check_checkpoint_roundtrip(ctx):
    """save_tensors then load_tensors returns the same names, order, dtypes
    and bytes; the checkpoint the workload itself relies on matches memory."""
    checkpoint = ctx.m["checkpoint"]
    rng = np.random.default_rng([ctx.seed, 107])
    named = {k: p.data for k, p in ctx.params.items()}
    named["extra.f64"] = rng.standard_normal((3, 5))
    named["extra.u8"] = rng.integers(0, 256, size=17, dtype=np.uint8)
    named["extra.i64"] = rng.integers(-2**62, 2**62, size=(2, 2), dtype=np.int64)
    named["extra.scalar"] = np.asarray(7, dtype=np.int64)
    path = os.path.join(ctx.run_dir, "roundtrip.msgm")
    checkpoint.save_tensors(path, named)
    back = checkpoint.load_tensors(path)
    problems = []
    if list(back) != list(named):
        problems.append("entry order or names differ")
    for k, arr in named.items():
        got = back.get(k)
        if got is None or got.dtype != arr.dtype or got.shape != arr.shape \
                or got.tobytes() != np.ascontiguousarray(arr).tobytes():
            problems.append(f"{k} differs")
    if ctx.stored_checkpoint is not None:
        stored_path, expected = ctx.stored_checkpoint
        stored = checkpoint.load_tensors(stored_path)
        for k, arr in expected.items():
            if k not in stored or stored[k].tobytes() != np.ascontiguousarray(arr).tobytes():
                problems.append(f"{os.path.basename(stored_path)}:{k} differs from memory")
    return not problems, f"{len(named)} entries; " + ("; ".join(problems[:5]) or "bit exact")


def check_losses_finite(ctx):
    losses = np.asarray(ctx.losses, dtype=np.float64)
    ok = losses.size > 0 and bool(np.all(np.isfinite(losses)))
    return ok, f"{losses.size} losses, all finite" if ok else f"{losses.size} losses, not all finite"


CHECKS = (
    ("reference_forward", check_reference_forward),
    ("gradient_and_routing", check_gradient_and_routing),
    ("adamw_closed_form", check_adamw),
    ("report_metrics", check_report_metrics),
    ("checkpoint_roundtrip", check_checkpoint_roundtrip),
    ("losses_finite", check_losses_finite),
)


def run_checks(ctx):
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(ctx)
        except Exception:  # a check that raises has failed; keep running the rest
            ok, detail = False, traceback.format_exc(limit=3)
        results.append((name, bool(ok), detail))
    return results
