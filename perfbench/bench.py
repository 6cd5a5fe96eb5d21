"""Runs one workload: repeated set-up, the timed phase repeated for a fixed
wall time, the output checks, and the metrics named in BENCHMARK.json.

Untraced runs (trace=False) report the end-to-end metrics and install no
wrapper: set-up and a fifth of the timed repetitions alternate five times,
after an untimed warm-up.
Traced runs set up once under the tracer, repeat the timed phase untraced
for half the time, then as often again under the tracer, and report the
per-layer metrics.

The reference kernel (reference.py) runs between every two timed blocks.
Every reported time is the block's wall time scaled to a nominal host speed
by the kernel's times around it, and is the median over the run's blocks.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import mgepool as mg
from reference import NOMINAL_S, Reference
from tracer import Tracer
from workloads import MIN_BASE_ACCURACY, WORKLOADS, same_model

SETUPS = 5      # set-ups per untraced run; setup_s is their median
MIN_REPS = 3    # the timed phase runs at least this often

END_TO_END = (
    ("setup_s", "s"),
    ("models_per_s", "1/s"),
    ("candidates_per_s", "1/s"),
    ("ratio_time", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (span name, extra per-call counters); each span also reports calls, self_s
LAYERS = (
    ("nn.forward", ("rows",)),
    ("nn.evaluate_accuracy", ()),
    ("nn.loss_and_grads", ("rows",)),
    ("nn.train", ()),
    ("nn.ParamSet.as_float32", ()),
    ("nn.ParamSet.validate", ()),
    ("transforms.dct2", ("elements",)),
    ("transforms.idct2", ("elements",)),
    ("transforms.sample_bounded_normal", ("draws",)),
    ("generator.generate_pool", ("attempts", "accepted")),
    ("generator.generate_model", ()),
    ("generator.model_masks", ()),
    ("generator.importance_mask", ()),
    ("generator.generate_layer", ()),
    ("evolution.mutate", ()),
    ("evolution.fuse", ()),
    ("evolution.select", ()),
    ("evolution.evaluate_population", ()),
    ("fitness.criterion_score", ()),
    ("adversarial.robust_accuracy", ("rows",)),
    ("adversarial.fgsm_batch", ()),
    ("store.save_model", ("bytes",)),
    ("store.load_model", ()),
    ("store.verify_manifest", ()),
)
COUNTER_UNITS = {"rows": "count", "elements": "count", "draws": "count",
                 "attempts": "count", "accepted": "count", "bytes": "B"}
EXTRA_LAYER = (
    ("generator.generate_pool.accept_ratio", "ratio"),
    ("generator.generate_model.ms_p50", "ms"),
    ("generator.generate_model.ms_ptail", "ms"),
    ("generator.generate_model.tail_pct", "pct"),
    ("generator.generate_model.samples", "count"),
    ("evolution.mutate.accept_ratio", "ratio"),
    ("evolution.fuse.accept_ratio", "ratio"),
    ("trace.phase_s", "s"),
    ("trace.unwrapped_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_metrics():
    """[(name, unit)] of every per-layer metric, in output order."""
    out = []
    for span, counters in LAYERS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        out += [(f"{span}.{c}", COUNTER_UNITS[c]) for c in counters]
    return out + list(EXTRA_LAYER)


@dataclass
class Tally:
    """Operations attempted and failed; a failure is a raised exception or
    a failed output check."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def call(self, name, fn, *args):
        """Run fn(*args) as one operation; returns None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:   # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict             # name -> (value, unit)
    digest: str
    failures: list
    trace_path: str = None
    unscaled: dict = field(default_factory=dict)   # name -> (value, unit)

    def line(self):
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def _percentile_tail(n):
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, int(np.floor(100.0 * (1.0 - 10.0 / n)))) if n >= 20 else 50


def _setup(wl, seed, smoke, tally, ref=None, first=None):
    """One set-up; returns it (None if it raised), its wall seconds and its
    host-speed scale (1 without a reference kernel)."""
    t0 = time.perf_counter()
    setup = tally.call("setup", wl.make_setup, seed, smoke)
    seconds = time.perf_counter() - t0
    scale = ref.scale() if ref is not None else 1.0
    if setup is not None:
        tally.check("setup.base_accuracy", setup.base_accuracy > MIN_BASE_ACCURACY)
        if first is not None:
            tally.check("setup.deterministic", same_model(setup.base, first.base)
                        and setup.base_accuracy == first.base_accuracy)
    return setup, seconds, scale


def _reps(wl, setup, prep, outdir, tally, ref, seconds, min_reps=MIN_REPS, count=None,
          phase=contextlib.nullcontext):
    """Repeat the timed phase for about `seconds` (at least `min_reps`
    times), or exactly `count` times, each inside ``phase()`` and followed
    by the reference kernel. A repetition starts only if half of the
    previous one still fits before the deadline. Keeps the outputs of the
    last repetition only."""
    reps = []
    deadline = time.perf_counter() + seconds
    while (len(reps) < count if count is not None
           else len(reps) < min_reps
           or time.perf_counter() + reps[-1].seconds / 2 < deadline):
        with phase():
            rep = tally.call("timed_phase", wl.rep, setup, prep, outdir)
        scale = ref.scale()
        if rep is None:
            if time.perf_counter() >= deadline:
                break
            continue
        rep.digest = wl.digest(rep)
        rep.scale = scale
        if reps:
            reps[-1].outputs = {}
        reps.append(rep)
    return reps


def run(name, seed, seconds, trace, smoke=False, out_root=None):
    """Run one workload and return its Result."""
    wl = WORKLOADS[name]
    out_root = out_root or os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")
    os.makedirs(out_root, exist_ok=True)
    tally = Tally()
    tracer = Tracer() if trace else None
    ref = Reference()
    # warm-up, untimed: a smoke-size set-up runs every code path of the real
    # one, so that no timed set-up pays for first calls in the process
    tally.call("warm-up", wl.make_setup, seed, True)
    ref.last = ref.run()
    if trace:
        with tracer.installed(), tracer.phase("setup"):
            setup, setup_s, setup_scale = _setup(wl, seed, smoke, tally)
    else:
        setup, setup_s, setup_scale = _setup(wl, seed, smoke, tally, ref)
    if setup is None:
        raise RuntimeError(f"set-up failed: {tally.failures}")

    prep = wl.prepare(setup, seed, smoke)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_root)
    try:
        traced = []
        ref.last = ref.run()   # the kernel's time just before the first repetition
        if trace:
            reps = _reps(wl, setup, prep, outdir, tally, ref, seconds / 2)
            with tracer.installed():
                traced = _reps(wl, setup, prep, outdir, tally, ref, 0, count=len(reps),
                               phase=lambda: tracer.phase("timed"))
        else:
            # Set-up and timed phase alternate SETUPS times, so that both
            # are sampled across the whole run.
            setups = [(setup_s, setup.train_seconds, setup_scale)]
            reps = []
            for i in range(SETUPS):
                if i:
                    again, again_s, scale = _setup(wl, seed, smoke, tally, ref,
                                                   first=setup)
                    if again is None:
                        break
                    setups.append((again_s, again.train_seconds, scale))
                w_reps = _reps(wl, setup, prep, outdir, tally, ref, seconds / SETUPS, 1)
                if w_reps and reps:
                    reps[-1].outputs = {}
                reps += w_reps
        if not reps or (trace and not traced):
            raise RuntimeError(f"timed phase never completed: {tally.failures}")
        last = traced[-1] if trace else reps[-1]
        for check, ok in wl.check(setup, prep, last):
            tally.check(check, ok)
        digests = {r.digest for r in reps + traced}
        tally.check("digest_repeats", len(digests) == 1)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if trace:
        metrics = _layer_metrics(tracer, reps, traced)
        trace_path = os.path.join(out_root, f"trace-{name}-seed{seed}.jsonl")
        tracer.write(trace_path)
    else:
        metrics = _end_to_end(setups, reps)
        unscaled = _end_to_end(setups, reps, scaled=False)
        unscaled = {k: unscaled[k] for k in ("setup_s", "models_per_s", "candidates_per_s")}
        unscaled["reference_s"] = (statistics.median(
            NOMINAL_S / scale for scale in [s[2] for s in setups] + [r.scale for r in reps]), "s")
        trace_path = None
    failed = len(tally.failures)
    return Result(failed == 0, tally.attempted, failed, metrics, last.digest,
                  tally.failures, trace_path, {} if trace else unscaled)


def scaled_median(pairs, scaled=True):
    """Median of the (seconds, host-speed scale) pairs, each scaled."""
    return statistics.median(s * scale if scaled else s for s, scale in pairs)


def _end_to_end(setups, reps, scaled=True):
    """setups: [(set-up seconds, train seconds, scale)]; reps: [Rep]."""
    rep_s = scaled_median(((r.seconds, r.scale) for r in reps), scaled)
    gen_s = scaled_median(((r.generate_seconds, r.scale) for r in reps), scaled)
    train_s = scaled_median(((t, scale) for _, t, scale in setups), scaled)
    last = reps[-1]
    values = {
        "setup_s": scaled_median(((s, scale) for s, _, scale in setups), scaled),
        "models_per_s": last.delivered / rep_s,
        "candidates_per_s": last.candidates / rep_s,
        "ratio_time": mg.time_ratio(gen_s, train_s * last.delivered),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END}


def _layer_metrics(tracer, reps, traced):
    n = len(traced)
    timed = tracer.aggregate("timed")
    setup = tracer.aggregate("setup")
    values = {}
    for span, counters in LAYERS:
        # nn.train runs only in set-up; everything else is per timed repetition
        a, per = (setup[span], 1) if span == "nn.train" else (timed[span], n)
        values[f"{span}.calls"] = a["calls"] / per
        values[f"{span}.self_s"] = a["self_s"] / per
        for c in counters:
            values[f"{span}.{c}"] = a.get(c, 0) / per
    pool = timed["generator.generate_pool"]
    values["generator.generate_pool.accept_ratio"] = (
        pool.get("accepted", 0) / pool["attempts"] if pool.get("attempts") else 0.0)
    durations = np.asarray(timed["generator.generate_model"]["durations"]) * 1000.0
    tail = _percentile_tail(len(durations))
    values["generator.generate_model.ms_p50"] = (
        float(np.percentile(durations, 50)) if durations.size else 0.0)
    values["generator.generate_model.ms_ptail"] = (
        float(np.percentile(durations, tail)) if durations.size else 0.0)
    values["generator.generate_model.tail_pct"] = float(tail)
    values["generator.generate_model.samples"] = float(durations.size)
    for op, (made, kept) in tracer.accept_by_origin().items():
        values[f"evolution.{op}.accept_ratio"] = kept / made if made else 0.0
    phase = timed["phase:timed"]
    values["trace.phase_s"] = sum(phase["durations"]) / n
    values["trace.unwrapped_s"] = phase["self_s"] / n
    values["trace.overhead_frac"] = (scaled_median((r.seconds, r.scale) for r in traced)
                                     / scaled_median((r.seconds, r.scale) for r in reps) - 1.0)
    return {k: (values[k], unit) for k, unit in per_layer_metrics()}
