"""Quick self-test of the benchmark harness and its correctness checks.

    python3 -m pytest benchmarks/selftest -q

Kept out of the repository's tier-1 suite, which collects only `tests/`.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH_DIR, ROOT

import checks
import run
import tracer as tracing
import workloads


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _bench(workload, trace, seconds="0.5", cwd=ROOT, seed="3"):
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


# -- harness ----------------------------------------------------------------

def test_spec_names_match_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    empty = run.layer_metrics(tracing.Tracer(), 1, 1.0, 1, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _v in empty]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "samples_per_s", "peak_rss_mb"}


def test_percentile_tail():
    assert run.percentile_tail(list(range(39))) == (50, 19)
    assert run.percentile_tail(list(range(1, 41))) == (75, 30)
    assert run.percentile_tail(list(range(1, 101))) == (90, 90)


def test_self_time_subtracts_direct_children_only():
    tr = tracing.Tracer()
    tr.spans = [("a", 0.0, 10.0, -1, None, "timed"),
                ("b", 1.0, 4.0, 0, None, "timed"),
                ("c", 2.0, 3.0, 1, None, "timed"),
                ("d", 5.0, 9.0, 0, None, "timed")]
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0]


def _tiny(seed=0):
    cm = workloads.import_crossmim(("transfer",))
    shape = dict(workloads.DESK, n_per_sensor=4)
    registry = cm.desk_registry()
    dataset = cm.gen_synthetic(registry, shape["n_per_sensor"], 32, 32, seed)
    cfg = workloads.model_config(cm, shape)
    params = sys.modules["crossmim.model"].init_params(registry, cfg, seed)
    return cm, dataset, cfg, params


def test_tracer_wraps_every_alias_and_restores():
    cm, dataset, cfg, params = _tiny()
    encoder, model = sys.modules["crossmim.encoder"], sys.modules["crossmim.model"]
    original = encoder.encode
    tr = tracing.Tracer()
    tr.install("timed", workloads.loaded_modules())
    try:
        assert model.encode is encoder.encode is cm.encode is not original
        with cm.fresh_tape():
            pred, _aux, _rep = model.reconstruct_sample(
                params, cfg, dataset.image(0), 0, np.zeros(cfg.tokens, dtype=bool), 0)
            cm.backward(cm.tensor.reduce_sum(pred))
    finally:
        tr.uninstall()
    assert encoder.encode is original and model.encode is original
    names = [s[0] for s in tr.spans]
    for want in ("model.reconstruct_sample", "embedder.embed", "encoder.encode",
                 "encoder.attention", "encoder.moe_forward", "tensor.layer_norm",
                 "decoders.decode", "tensor.backward"):
        assert want in names, want
    by_id = dict(enumerate(tr.spans))
    encode = names.index("encoder.encode")
    assert by_id[by_id[encode][3]][0] == "model.reconstruct_sample"
    assert all(s[4] == "model.reconstruct_sample#0" for s in tr.spans if s[0] != "tensor.backward")
    assert tr.count("timed", "tensor.matmul") > 0
    assert tr.count("timed", "tape_nodes") > 0
    assert tr.count("timed", "moe_kept") + tr.count("timed", "moe_dropped") == 2 * cfg.tokens


# -- the checks catch faults ---------------------------------------------------

@pytest.fixture
def ctx(tmp_path):
    _cm, dataset, cfg, params = _tiny(seed=5)
    return checks.Context(workloads.loaded_modules(), params, cfg, dataset, 5,
                          str(tmp_path), losses=[1.0, 0.5])


def test_checks_pass_on_the_program(ctx):
    results = checks.run_checks(ctx)
    assert all(ok for _n, ok, _d in results), results


def test_reference_check_catches_wrong_attention(ctx, monkeypatch):
    encoder = ctx.m["encoder"]
    real = encoder.attention
    monkeypatch.setattr(encoder, "attention", lambda x, p, heads: real(x, p, heads) * 1.001)
    ok, _detail = checks.check_reference_forward(ctx)
    assert not ok


def test_gradient_check_catches_wrong_backward(ctx, monkeypatch):
    T, model = ctx.m["tensor"], ctx.m["model"]
    real = T.backward

    def scaled_backward(loss):
        real(loss)
        for p in ctx_params.values():
            if p.grad is not None:
                p.grad = p.grad * 1.01

    ctx_params = {}
    real_round = model.round_loss

    def capture(params, *a, **k):
        ctx_params.clear()
        ctx_params.update(params)
        return real_round(params, *a, **k)

    monkeypatch.setattr(T, "backward", scaled_backward)
    monkeypatch.setattr(model, "round_loss", capture)
    ok, _detail = checks.check_gradient_and_routing(ctx)
    assert not ok


def test_adamw_check_catches_decay_on_vectors(ctx, monkeypatch):
    training = ctx.m["training"]
    real = training.adamw_step

    def decay_everything(params, m, v, step, base_lr, lr_mult, cfg, lr_scales):
        for p in params.values():
            p.data = p.data * (1.0 - 1e-6)
        real(params, m, v, step, base_lr, lr_mult, cfg, lr_scales)

    monkeypatch.setattr(training, "adamw_step", decay_everything)
    ok, _detail = checks.check_adamw(ctx)
    assert not ok


def test_report_check_catches_wrong_psnr(ctx, monkeypatch):
    transfer = ctx.m["transfer"]
    real = transfer.psnr
    monkeypatch.setattr(transfer, "psnr", lambda a, b, m: real(a, b, m) + 1e-6)
    ok, _detail = checks.check_report_metrics(ctx)
    assert not ok


def test_roundtrip_check_catches_a_flipped_bit(ctx, monkeypatch):
    checkpoint = ctx.m["checkpoint"]
    real = checkpoint.load_tensors

    def flip(path):
        named = real(path)
        first = next(iter(named))
        named[first].view(np.uint8).reshape(-1)[0] ^= 1
        return named

    monkeypatch.setattr(checkpoint, "load_tensors", flip)
    ok, _detail = checks.check_checkpoint_roundtrip(ctx)
    assert not ok


def test_finite_loss_check(ctx):
    ctx.losses = [1.0, float("nan")]
    assert not checks.check_losses_finite(ctx)[0]


# -- end to end ------------------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    leftovers = [n for n in os.listdir(os.path.join(BENCH_DIR, "out")) if n.startswith("run-")]
    assert not leftovers


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("desk-pretrain", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
