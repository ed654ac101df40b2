"""Spans around calls into crossmim, recorded from outside the program.

`Tracer.install` replaces each target function with a timing wrapper in
every loaded crossmim module that holds the function under some name, so a
call made through `from .encoder import encode` is timed the same as one
made through `encoder.encode`.  `uninstall` puts the originals back, which
lets a traced run alternate traced and untraced stretches of the same work.

A span is (name, start, end, parent, op, phase): `parent` is the index of
the enclosing span (-1 at top level), `op` the operation the call belongs
to (a pretraining round, an evaluated record or a fine-tuning step) and
`phase` one of setup, timed or check.  Garbage-collector pauses are kept
as separate events through `gc.callbacks`.
"""

import gc
import json
import os
import time

# (module, attribute); "Class.method" patches a method on the class.  A span
# is named <module>.<function>, so Trainer.train_step is training.train_step.
SPAN_TARGETS = (
    ("tensor", "backward"),
    ("tensor", "layer_norm"),
    ("tensor", "softmax"),
    ("embedder", "embed"),
    ("encoder", "encode"),
    ("encoder", "attention"),
    ("encoder", "moe_forward"),
    ("decoders", "decode"),
    ("decoders", "reconstruction_loss"),
    ("masking", "draw_mask"),
    ("model", "round_loss"),
    ("model", "reconstruct_sample"),
    ("training", "Trainer.next_round"),
    ("training", "Trainer.train_step"),
    ("training", "adamw_step"),
    ("checkpoint", "save_tensors"),
    ("checkpoint", "load_tensors"),
    ("sensors", "gen_synthetic"),
    ("sensors", "save_manifest"),
    ("sensors", "load_manifest"),
    ("transfer", "reconstruction_report"),
    ("transfer", "cross_reconstruction_l1"),
    ("transfer", "finetune_forward"),
    ("transfer", "task_loss"),
    ("metrics", "ssim"),
    ("metrics", "psnr"),
    ("metrics", "sam_degrees"),
)
# called too often for a span each; counted only
COUNT_TARGETS = (("tensor", "matmul"),)
# the outermost call of one of these starts a new operation id
OP_BOUNDARIES = ("training.train_step", "model.reconstruct_sample", "transfer.task_loss")



class Tracer:
    def __init__(self):
        self.spans = []
        self.gc_events = []  # (start, end, generation, enclosing span, phase)
        self.counts = {}  # (phase, key) -> number
        self.missing = set()
        self.phase = None
        self._stack = []
        self._patches = []
        self._op = None
        self._op_depth = None
        self._op_seq = {}
        self._gc_start = None

    # -- counters ------------------------------------------------------------
    def add(self, key, value=1):
        k = (self.phase, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def count(self, phase, key):
        return self.counts.get((phase, key), 0)

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        boundary = name in OP_BOUNDARIES

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            opened = boundary and self._op_depth is None
            if opened:
                seq = self._op_seq.get(name, 0)
                self._op_seq[name] = seq + 1
                self._op, self._op_depth = f"{name}#{seq}", len(stack)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op, self.phase)
                if opened:
                    self._op = self._op_depth = None
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def _before_backward(self, backward):
        tensor_globals = backward.__globals__

        def before(_args):
            self.add("tape_nodes", len(tensor_globals["_ACTIVE"].nodes))

        return before

    def _after_moe(self, _args, result):
        report = result[2]
        self.add("moe_kept", sum(report.expert_counts))
        self.add("moe_dropped", report.dropped)

    def _after_save(self, args, _result):
        self.add("checkpoint_bytes", os.path.getsize(args[0]))

    def _on_gc(self, gc_phase, info):
        if gc_phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            parent = self._stack[-1] if self._stack else -1
            self.gc_events.append((self._gc_start, time.perf_counter(),
                                   info["generation"], parent, self.phase))
            self._gc_start = None

    # -- install / uninstall ---------------------------------------------------
    def install(self, phase, modules):
        """Wrap every target in `modules` (short name -> loaded crossmim
        submodule); a target whose module is absent is not used by the run."""
        self.phase = phase
        for mod_name, attr in SPAN_TARGETS + COUNT_TARGETS:
            module = modules.get(mod_name)
            if module is None:
                continue
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(meth)
                if fn is None:
                    self.missing.add(name)
                    continue
                setattr(cls, meth, self._span(name, fn))
                self._patches.append((cls, meth, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            if (mod_name, attr) in COUNT_TARGETS:
                wrapped = self._counter(name, fn)
            elif name == "tensor.backward":
                wrapped = self._span(name, fn, before=self._before_backward(fn))
            elif name == "encoder.moe_forward":
                wrapped = self._span(name, fn, after=self._after_moe)
            elif name == "checkpoint.save_tensors":
                wrapped = self._span(name, fn, after=self._after_save)
            else:
                wrapped = self._span(name, fn)
            for owner in modules.values():
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapped)
                        self._patches.append((owner, key, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._gc_start = None
        self.phase = None

    # -- analysis ------------------------------------------------------------
    def self_times(self):
        """Span index -> duration minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, start, end, _p, _o, _ph) in enumerate(self.spans)]

    def durations(self, name, phases):
        return [end - start for n, start, end, _p, _o, phase in self.spans
                if n == name and phase in phases]

    def write(self, path, header):
        """One JSON object per line: a header, then spans, then GC pauses."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header, "missing_targets": sorted(self.missing)}) + "\n")
            for i, (name, start, end, parent, op, phase) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "self": selfs[i], "parent": parent, "op": op,
                                    "phase": phase}) + "\n")
            for start, end, gen, parent, phase in self.gc_events:
                f.write(json.dumps({"gc_generation": gen, "start": start, "end": end,
                                    "parent": parent, "phase": phase}) + "\n")
