#!/usr/bin/env python3
"""Benchmark of crossmim: pretraining at two shapes, and downstream
evaluation plus fine-tuning from a pretrained checkpoint.

    python3 benchmarks/run.py --workload desk-pretrain --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One run is one workload in one process:

1. (desk-downstream) a child process writes the pretrained checkpoint;
2. crossmim is imported once untimed, so NumPy and SciPy are loaded;
3. set-up runs SETUP_REPS times, each after dropping every crossmim module
   from `sys.modules`: import crossmim, generate the data, write and read
   its manifest, build the parameters or load the checkpoint;
4. one unit of work (an epoch, or a downstream cycle) warms up;
5. the timed phase runs whole units until --seconds of them are timed;
6. the correctness checks run on the result, outside the timed phase;
7. set-up runs SETUP_REPS more times; setup_s is the median of all.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 the timed work alternates untraced
and traced units and the object holds the per-layer metrics, including the
tracing overhead.  Spans go to benchmarks/out/trace-<workload>-seed<n>.jsonl.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPS = 7
# One BLAS thread, as the CLI documents its computation: every run then does
# its work on one core, whatever the machine has.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas():
    """Must run before NumPy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("NumPy was imported before the BLAS thread count was pinned")
    for var in BLAS_ENV:
        os.environ[var] = "1"


def use_source_tree():
    if not os.path.isfile(os.path.join(SRC, "crossmim", "__init__.py")):
        sys.exit(f"error: crossmim sources not found under {SRC}")
    sys.path.insert(0, SRC)


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(workload_names) + ["all"],
                   help="one workload, or all of them, each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare-checkpoint", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.prepare_checkpoint is None and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def percentile_tail(values):
    """(percentile, value) of the highest percentile with at least ten
    values beyond it; the median alone below forty values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return 50, statistics.median(ordered) if ordered else 0.0
    k = n - 10  # 1-based rank with exactly ten values above it
    return 100 * k // n, ordered[k - 1]


def _per_sample(total, samples):
    return total / samples if samples else 0.0


def layer_metrics(tr, samples, traced_s, untraced_samples, untraced_s):
    """Per-layer metrics of the traced units, as (name, unit, value)."""
    timed = ("timed",)
    out = []

    def ms_per_sample(name):
        out.append((f"{name}.ms_per_sample", "ms/sample",
                    _per_sample(1000.0 * sum(tr.durations(name, timed)), samples)))

    def ms_per_call(name):
        d = tr.durations(name, ("setup", "timed", "check"))
        out.append((f"{name}.ms_per_call", "ms/call", 1000.0 * statistics.median(d) if d else 0.0))

    out.append(("tensor.tape_nodes_per_sample", "count/sample",
                _per_sample(tr.count("timed", "tape_nodes"), samples)))
    out.append(("tensor.matmul.calls_per_sample", "count/sample",
                _per_sample(tr.count("timed", "tensor.matmul"), samples)))
    for name in ("tensor.backward", "tensor.layer_norm", "tensor.softmax", "embedder.embed",
                 "encoder.encode"):
        ms_per_sample(name)
    out.append(("encoder.encode.calls_per_sample", "count/sample",
                _per_sample(len(tr.durations("encoder.encode", timed)), samples)))
    ms_per_sample("encoder.attention")
    ms_per_sample("encoder.moe_forward")
    kept, dropped = tr.count("timed", "moe_kept"), tr.count("timed", "moe_dropped")
    out.append(("encoder.moe.dropped_per_sample", "count/sample", _per_sample(dropped, samples)))
    out.append(("encoder.moe.kept_ratio", "ratio", kept / (kept + dropped) if kept + dropped else 0.0))
    for name in ("decoders.decode", "decoders.reconstruction_loss", "masking.draw_mask",
                 "model.round_loss"):
        ms_per_sample(name)
    selfs = tr.self_times()
    round_self = sum(selfs[i] for i, s in enumerate(tr.spans)
                     if s[0] == "model.round_loss" and s[5] == "timed")
    out.append(("model.round_loss.self_ms_per_sample", "ms/sample",
                _per_sample(1000.0 * round_self, samples)))
    ms_per_sample("training.next_round")
    ms_per_sample("training.adamw_step")
    steps = [1000.0 * d for d in tr.durations("training.train_step", timed)]
    tail_pct, tail = percentile_tail(steps)
    out.append(("training.train_step.ms.p50", "ms", statistics.median(steps) if steps else 0.0))
    out.append(("training.train_step.ms.tail", "ms", tail))
    out.append(("training.train_step.tail_pct", "%", tail_pct))
    out.append(("training.train_step.rounds", "count", len(steps)))
    ms_per_call("checkpoint.save_tensors")
    ms_per_call("checkpoint.load_tensors")
    saves = tr.count("setup", "checkpoint_bytes") + tr.count("timed", "checkpoint_bytes") \
        + tr.count("check", "checkpoint_bytes")
    n_saves = len(tr.durations("checkpoint.save_tensors", ("setup", "timed", "check")))
    out.append(("checkpoint.bytes_written", "B/call", _per_sample(saves, n_saves)))
    for name in ("sensors.gen_synthetic", "sensors.save_manifest", "sensors.load_manifest"):
        d = tr.durations(name, ("setup",))
        out.append((f"{name}.ms", "ms", 1000.0 * statistics.median(d) if d else 0.0))
    for name in ("transfer.reconstruction_report", "transfer.cross_reconstruction_l1",
                 "transfer.finetune_forward", "transfer.task_loss",
                 "metrics.ssim", "metrics.psnr", "metrics.sam_degrees"):
        ms_per_sample(name)
    pauses = [(end - start, gen) for start, end, gen, _p, phase in tr.gc_events if phase == "timed"]
    out.append(("python.gc.ms_per_sample", "ms/sample",
                _per_sample(1000.0 * sum(d for d, _g in pauses), samples)))
    out.append(("python.gc.gen2_collections", "count", sum(1 for _d, g in pauses if g == 2)))
    traced_rate = samples / traced_s
    untraced_rate = untraced_samples / untraced_s
    out.append(("trace.samples", "count", samples))
    out.append(("trace.samples_per_s", "1/s", traced_rate))
    out.append(("trace.untraced_samples_per_s", "1/s", untraced_rate))
    out.append(("trace.overhead_pct", "%", 100.0 * (1.0 - traced_rate / untraced_rate)))
    return out


def set_up(wl, workloads, tracer, reps):
    """Time `reps` complete set-ups, each from a fresh import of crossmim."""
    times = []
    for _ in range(reps):
        workloads.purge_crossmim()
        gc.collect()
        t0 = time.perf_counter()
        cm = workloads.import_crossmim(wl.extra_modules)
        if tracer:
            tracer.install("setup", workloads.loaded_modules())
        wl.build(cm)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
    return times


def measure(args, run_dir, workloads, checks, tracing):
    clock = time.perf_counter
    marks = [("start", clock())]
    wl = workloads.make(args.workload, args.seed, run_dir)
    wl.prepare()
    workloads.import_crossmim(wl.extra_modules)  # runtime start-up, untimed
    marks.append(("prepare", clock()))
    tracer = tracing.Tracer() if args.trace else None
    setup_times = set_up(wl, workloads, tracer, SETUP_REPS)
    errors = workloads.error_types()
    marks.append(("setup", clock()))
    wl.run_unit()  # warm-up
    gc.collect()
    marks.append(("warm-up", clock()))

    # Whole units until --seconds of timed work; a traced run alternates
    # untraced and traced units and ends on a traced one.
    attempted = failed = 0
    seconds = {False: 0.0, True: 0.0}
    samples = {False: 0, True: 0}
    units = 0
    while True:
        traced = tracer is not None and units % 2 == 1
        if traced:
            tracer.install("timed", workloads.loaded_modules())
        t0 = clock()
        try:
            done_ops, done_samples = wl.run_unit()
            error = None
        except errors as e:
            (done_ops, done_samples), error = wl.done, e
        seconds[traced] += clock() - t0
        if traced:
            tracer.uninstall()
        units += 1
        samples[traced] += done_samples
        attempted += wl.ops_per_unit
        failed += wl.ops_per_unit - done_ops
        if error is not None:
            print(f"operation failed: {type(error).__name__}: {error}", file=sys.stderr)
            break
        if seconds[False] + seconds[True] >= args.seconds and (tracer is None or units % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    marks.append((f"timed ({units} units)", clock()))

    if tracer:
        tracer.install("check", workloads.loaded_modules())
    results = checks.run_checks(wl.check_context())
    if tracer:
        tracer.uninstall()
    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'}: {detail}", file=sys.stderr)
    marks.append(("checks", clock()))
    # a second batch of set-ups, half a minute after the first, so that the
    # median spans more than one moment of a shared machine's speed
    setup_times += set_up(wl, workloads, tracer, SETUP_REPS)
    marks.append(("setup", clock()))
    print("phases: " + ", ".join(f"{name} {t - prev:.1f} s" for (_p, prev), (name, t)
                                 in zip(marks, marks[1:])), file=sys.stderr)

    if tracer is None:
        metrics = [("setup_s", "s", statistics.median(setup_times)),
                   ("samples_per_s", "1/s", samples[False] / seconds[False]),
                   ("peak_rss_mb", "MB", peak_rss_mb)]
    else:
        metrics = layer_metrics(tracer, samples[True], seconds[True], samples[False], seconds[False])
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "traced_samples": samples[True], "traced_seconds": seconds[True]})
        print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        if tracer.missing:
            print(f"warning: trace targets not found: {sorted(tracer.missing)}", file=sys.stderr)
    return {
        "correct": all(ok for _n, ok, _d in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }


def run_all(args, names):
    """Run every workload in a fresh child process and print a summary."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, v in r["metrics"].items():
            print(f"  {metric:<48} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    pin_blas()
    import checks
    import tracer as tracing
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    use_source_tree()
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.prepare_checkpoint:
        workloads.prepare_checkpoint(args.prepare_checkpoint, args.seed)
        return 0
    run_dir = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        result = measure(args, run_dir, workloads, checks, tracing)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
