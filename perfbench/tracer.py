"""Outside-in tracer: timing wrappers installed on the library's module
bindings, spans kept in memory, self time and counters aggregated per name.

The library is not modified. A function such as ``evaluate_accuracy`` is
reached through every module that imported it by name (``nn``,
``generator``, ``evolution``, ``fitness`` and the package itself), so the
tracer replaces the function object under *every* binding that holds it,
and puts each original back on ``remove``. A refactor that calls a
function through a binding the tracer does not know shows up as a span
with zero calls, which is printed rather than dropped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "mgepool"


def _rows(pos):
    """Counter: number of rows (examples) in positional argument `pos`."""
    def count(args, kwargs, result):
        return {"rows": len(args[pos])}
    return count


def _elements(args, kwargs, result):
    return {"elements": int(np.size(args[0]))}


def _draws(args, kwargs, result):
    return {"draws": int(args[1] if len(args) > 1 else kwargs["count"])}


def _pool(args, kwargs, result):
    return {"attempts": result.attempts, "accepted": len(result.candidates)}


def _accepted(args, kwargs, result):
    return {"accepted": int(bool(result))}


def _bytes(args, kwargs, result):
    return {"bytes": result.byte_size}


@dataclass(frozen=True)
class Target:
    """One library function to wrap: its home module, its qualified name
    inside that module, the span name it is reported under, and an optional
    counter ``count(args, kwargs, result) -> dict`` evaluated per call."""

    module: str
    qualname: str
    span: str
    count: object = None


TARGETS = (
    Target("nn", "forward", "nn.forward", _rows(2)),
    Target("nn", "evaluate_accuracy", "nn.evaluate_accuracy"),
    Target("nn", "loss_and_grads", "nn.loss_and_grads", _rows(2)),
    Target("nn", "train", "nn.train"),
    Target("nn", "ParamSet.as_float32", "nn.ParamSet.as_float32"),
    Target("nn", "ParamSet.__post_init__", "nn.ParamSet.validate"),
    Target("transforms", "dct2", "transforms.dct2", _elements),
    Target("transforms", "idct2", "transforms.idct2", _elements),
    Target("transforms", "sample_bounded_normal", "transforms.sample_bounded_normal", _draws),
    Target("generator", "generate_pool", "generator.generate_pool", _pool),
    Target("generator", "generate_model", "generator.generate_model"),
    Target("generator", "model_masks", "generator.model_masks"),
    Target("generator", "importance_mask", "generator.importance_mask"),
    Target("generator", "generate_layer", "generator.generate_layer"),
    Target("generator", "accept", "generator.accept", _accepted),
    Target("evolution", "evolve", "evolution.evolve"),
    Target("evolution", "mutate", "evolution.mutate"),
    Target("evolution", "fuse", "evolution.fuse"),
    Target("evolution", "select", "evolution.select"),
    Target("evolution", "evaluate_population", "evolution.evaluate_population"),
    Target("fitness", "criterion_score", "fitness.criterion_score"),
    Target("adversarial", "robust_accuracy", "adversarial.robust_accuracy", _rows(2)),
    Target("adversarial", "fgsm_batch", "adversarial.fgsm_batch"),
    Target("store", "save_model", "store.save_model", _bytes),
    Target("store", "load_model", "store.load_model"),
    Target("store", "verify_manifest", "store.verify_manifest"),
)


def _resolve(target):
    """(owner object, attribute name) of the target's definition, or None
    if the library no longer defines it."""
    owner = sys.modules.get(f"{PACKAGE}.{target.module}")
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Spans are ``[name, start, end, parent index, counters or None]``.

    Use as ``with tracer.installed(): with tracer.phase("timed"): ...``.
    Phases are root spans; every wrapped call is a descendant of one.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.patches = []   # (owner, attribute, original), in install order

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace each target under every package binding that holds it."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for t in TARGETS:
            found = _resolve(t)
            if found is None:
                continue  # reported with zero calls, like an unused binding
            owner, attr = found
            original = owner.__dict__[attr]
            wrapper = self._wrap(t.span, original, t.count)
            self._patch(owner, attr, original, wrapper)
            if "." in t.qualname:
                continue  # a method is reached only through its class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    @contextlib.contextmanager
    def installed(self):
        """Wrappers are in place inside the block and removed on exit."""
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextlib.contextmanager
    def phase(self, name):
        """Open a root span named ``phase:<name>`` around the block."""
        if self._stack:
            raise RuntimeError("phases cannot nest")
        rec = [f"phase:{name}", time.perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield self
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def roots(self):
        """Index of each span's phase (root) span."""
        root = []
        for i, s in enumerate(self.spans):
            root.append(i if s[3] < 0 else root[s[3]])
        return root

    def aggregate(self, phase):
        """{span name: {"calls", "self_s", "durations", counters...}} over the
        spans under every root span named ``phase:<phase>``. Every target
        appears, with zero calls if it never ran."""
        agg = {t.span: {"calls": 0, "self_s": 0.0, "durations": []} for t in TARGETS}
        self_s = self.self_times()
        roots = self.roots()
        label = f"phase:{phase}"
        for i, s in enumerate(self.spans):
            if self.spans[roots[i]][0] != label:
                continue
            a = agg.setdefault(s[0], {"calls": 0, "self_s": 0.0, "durations": []})
            a["calls"] += 1
            a["self_s"] += self_s[i]
            a["durations"].append(s[2] - s[1])
            for k, v in (s[4] or {}).items():
                a[k] = a.get(k, 0) + v
        return agg

    def accept_by_origin(self):
        """Accept decisions that ``evolve`` makes itself, attributed to the
        operation that produced the candidate: each ``accept`` call directly
        under ``evolve`` judges the product of the closest earlier
        ``mutate`` or ``fuse`` sibling. Returns {"mutate": [n, accepted],
        "fuse": [n, accepted]}."""
        out = {"mutate": [0, 0], "fuse": [0, 0]}
        last = {}
        for s in self.spans:
            parent = s[3]
            if parent < 0 or self.spans[parent][0] != "evolution.evolve":
                continue
            if s[0] in ("evolution.mutate", "evolution.fuse"):
                last[parent] = s[0].split(".")[1]
            elif s[0] == "generator.accept" and parent in last:
                tally = out[last[parent]]
                tally[0] += 1
                tally[1] += s[4]["accepted"]
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, counters) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start - t0,
                       "end": end - t0, "parent": parent}
                if counters:
                    rec["counters"] = counters
                f.write(json.dumps(rec) + "\n")
