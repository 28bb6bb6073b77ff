"""Span tracing from outside the program.

The traced run replaces public functions at the attributes their callers
look up (a module global, a class attribute) with wrappers that record
nested spans: id, parent id, name, start, end. Spans stay in memory and are
written out once the run ends. A span's self time is its duration minus
the durations of its direct children; calls are strictly nested in one
thread, so the children never overlap and the self times of one job's spans
sum to the job's root span.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Collects spans as [id, parent, name, start, end, job, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, fn, name, counts=None):
        """Wrap fn; name is a string or a function of fn's arguments, as is counts."""

        def traced(*args, **kwargs):
            span = [
                len(self.spans),
                self._stack[-1] if self._stack else None,
                name(*args, **kwargs) if callable(name) else name,
                0.0,
                0.0,
                self.job,
                counts(*args, **kwargs) if counts else None,
            ]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, job, counts in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, **(counts or {})}) + "\n")


class Patch:
    """Swaps attributes for wrapped versions and puts the originals back."""

    def __init__(self, targets, wrap):
        # targets: (owner, attribute, name, counts); wrap(fn, name, counts) -> wrapper
        self._saved = []
        for owner, attr, name, counts in targets:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(original.__func__, name, counts))
            else:
                replacement = wrap(original, name, counts)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _detector_name(ds, params):
    return "detectors." + params.kind.value


def _train_counts(model, X, y, spec):
    rows = len(X)
    return {"rows": rows, "steps": spec.epochs * math.ceil(rows / spec.batch_size)}


def layer_targets(cli, booster, rng):
    """The layer boundaries: every attribute the traced run wraps, and its span name."""
    targets = [
        (cli, "load_csv", "data.load_csv", None),
        (cli, "fit_score", _detector_name, None),
        (cli, "save_scores", "detectors.save_scores", None),
        (cli, "run_booster", "booster.run_booster", None),
        (booster, "train", "nn.train", _train_counts),
        (booster, "forward", "nn.forward", lambda model, X: {"rows": len(X)}),
        (booster.InputConditioner, "fit", "booster.conditioner.fit", None),
        (booster.InputConditioner, "apply", "booster.conditioner.apply", None),
        (booster, "per_instance_variance", "booster.variance", None),
        (booster, "update_pseudo_labels", "booster.update", None),
        (rng.Stream, "u64", "rng.u64", None),
    ]
    # label-only diagnostics, in the booster loop and in the CLI report
    targets += [(booster, f, "metrics", None) for f in ("aucroc", "average_precision")]
    targets += [
        (cli, f, "metrics", None)
        for f in ("aucroc", "average_precision", "correction_rate", "variance_gap")
    ]
    return targets


def peak_alloc_wrap(peaks: list):
    """A wrap function that records the tracemalloc peak (bytes) inside each call."""

    def wrap(fn, name, counts):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    return wrap


def summarize(spans: list[list]) -> dict:
    """Per-name totals over the spans: calls, inclusive s, self s, summed counts.

    Also returns, per job, the root duration and the sum of the job's self
    times, which must agree.
    """
    child_s = defaultdict(float)
    for sid, parent, name, start, end, job, counts in spans:
        if parent is not None:
            child_s[parent] += end - start
    by_name = defaultdict(lambda: defaultdict(float))
    jobs = defaultdict(lambda: [0.0, 0.0])  # job -> [root duration, sum of self times]
    for sid, parent, name, start, end, job, counts in spans:
        entry = by_name[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_s[sid]
        for key, value in (counts or {}).items():
            entry[key] += value
        jobs[job][1] += end - start - child_s[sid]
        if parent is None:
            jobs[job][0] += end - start
    return {"layers": {k: dict(v) for k, v in by_name.items()}, "jobs": dict(jobs)}
