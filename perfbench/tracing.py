"""Span tracing of gwrnet's public functions, installed from outside the package.

Every traced name is patched where its caller looks it up: module-level
functions in the namespace of the module that calls them, methods on their
class. A wrapper appends one span (name, start, end, parent span index) per
call and, for a few targets, derives an exact count from the return value.
Spans stay in memory and are folded into per-layer figures after each traced
trial; nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

from gwrnet import cli, datasets, labeling, model, protocols, replay, snapshot


def _match_bytes(counts, args, result):
    network = args[0]
    counts["model.match.bytes_computed"] += (
        network.num_neurons * (network.hyper.num_contexts + 1) * network.dim * 8
    )


def _step_inserted(counts, args, result):
    if result.inserted is not None:
        counts["model.insertions"] += 1


def _replay_steps(counts, args, result):
    counts["replay.steps_applied"] += result.steps_applied


def _rnat_length(counts, args, result):
    counts["replay.rnat_generated"] += 1
    if len(result.ids) >= 2:
        counts["replay.rnat_yielded"] += 1


def _prediction(counts, args, result):
    counts["labeling.predictions"] += 1
    if result is None:
        counts["labeling.abstentions"] += 1


def _snapshot_size(counts, args, result):
    counts["snapshot.bytes"] = len(result.encode("utf-8"))


def _csv_size(counts, args, result):
    counts["datasets.csv_bytes"] = os.path.getsize(args[0])


# (span name, owner, attribute, observer); the owner is where the caller
# resolves the name at call time, so patching it there is what the caller sees
TARGETS = [
    ("model.match", model.Network, "match", _match_bytes),
    ("model.step", model.Network, "step", _step_inserted),
    ("model.replay_step", model.Network, "replay_step", None),
    ("model.find_bmu", model.Network, "find_bmu", None),
    ("model.adapt", model.Network, "adapt", None),
    ("model.maybe_insert", model.Network, "maybe_insert", None),
    ("labeling.predict", labeling.LabelAssociations, "predict", None),
    ("labeling.classify_sample", protocols, "classify_sample", _prediction),
    ("protocols.evaluate", protocols, "evaluate", None),
    ("protocols.run_protocol", protocols, "run_protocol", None),
    ("protocols.run_protocol", cli, "run_protocol", None),
    ("replay.replay_episode", protocols, "replay_episode", _replay_steps),
    ("replay.generate_rnat", replay, "generate_rnat", _rnat_length),
    ("snapshot.save_snapshot", protocols, "save_snapshot", _snapshot_size),
    ("snapshot.save_snapshot", snapshot, "save_snapshot", _snapshot_size),
    ("snapshot.load_snapshot", snapshot, "load_snapshot", None),
    ("datasets.generate_synthetic", datasets, "generate_synthetic", None),
    ("datasets.split_by_sessions", datasets, "split_by_sessions", None),
    ("datasets.split_by_sessions", protocols, "split_by_sessions", None),
    ("datasets.load_features", datasets, "load_features", _csv_size),
    ("datasets.load_features", cli, "load_features", _csv_size),
    ("cli.main", cli, "main", None),
]
SPAN_NAMES = sorted({name for name, _, _, _ in TARGETS})

# counts derived from return values: they repeat exactly for one seed, and
# references.json holds them per (workload, seed)
RETURN_COUNTS = (
    "model.insertions",
    "replay.steps_applied",
    "replay.rnat_generated",
    "replay.rnat_yielded",
    "labeling.predictions",
    "labeling.abstentions",
    "snapshot.bytes",
)
# must also repeat across the traced trials of one run; the computed bytes
# depend on how the program calls match, so no reference holds them
EXACT_COUNTS = RETURN_COUNTS + ("model.match.bytes_computed",)


class Tracer:
    """Span recorder; ``install`` patches every target, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list = []

    def install(self) -> None:
        for name, owner, attr, observe in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _wrap(self, name, fn, observe):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            spans, open_ = self.spans, self.open
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


def fold(spans) -> dict[str, dict]:
    """Per-name call count, summed self time and list of span durations.

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child[index]
        entry["durations"].append(end - start)
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(setup_fold, setup_counts, trial_folds, trial_counts, traced_s, untraced_s):
    """Per-layer metrics of a traced run, as ``{name: (value, unit)}``.

    ``trial_folds``/``trial_counts`` hold one entry per traced trial; per-trial
    figures are medians over them. Per-call durations pool every call of the
    traced trials, and for the dataset layer the set-up calls too.
    """

    def per_trial(name, key):
        values = [f[name][key] if name in f else 0 for f in trial_folds]
        return statistics.median_low(values) if key == "calls" else _median(values)

    def durations(name, include_setup=False):
        pooled = [d for f in trial_folds if name in f for d in f[name]["durations"]]
        if include_setup and name in setup_fold:
            pooled += setup_fold[name]["durations"]
        return _median(pooled)

    def count(name):
        return statistics.median_low([c[name] for c in trial_counts])

    m = {}
    for name in ("model.match", "model.step"):
        m[f"{name}.calls"] = (per_trial(name, "calls"), "count")
        m[f"{name}.self_s"] = (per_trial(name, "self_s"), "s")
        m[f"{name}.us_p50"] = (durations(name) * 1e6, "us")
    m["model.match.bytes_computed"] = (count("model.match.bytes_computed"), "B")
    for name in ("model.find_bmu", "model.adapt", "model.maybe_insert"):
        m[f"{name}.self_s"] = (per_trial(name, "self_s"), "s")
    m["model.insertions"] = (count("model.insertions"), "count")
    for name in (
        "model.replay_step",
        "replay.replay_episode",
        "replay.generate_rnat",
        "labeling.classify_sample",
        "labeling.predict",
        "protocols.evaluate",
    ):
        m[f"{name}.calls"] = (per_trial(name, "calls"), "count")
        m[f"{name}.self_s"] = (per_trial(name, "self_s"), "s")
    m["replay.steps_applied"] = (count("replay.steps_applied"), "count")
    m["replay.rnat_yield"] = (
        _ratio(count("replay.rnat_yielded"), count("replay.rnat_generated")),
        "ratio",
    )
    m["labeling.abstain_ratio"] = (
        _ratio(count("labeling.abstentions"), count("labeling.predictions")),
        "ratio",
    )
    m["protocols.evaluate.ms_p50"] = (durations("protocols.evaluate") * 1e3, "ms")
    m["protocols.run_protocol.self_s"] = (per_trial("protocols.run_protocol", "self_s"), "s")
    for name in ("datasets.load_features", "datasets.generate_synthetic", "datasets.split_by_sessions"):
        m[f"{name}.s"] = (durations(name, include_setup=True), "s")
    m["datasets.csv_bytes"] = (
        max(c["datasets.csv_bytes"] for c in trial_counts + [setup_counts]),
        "B",
    )
    for name in ("snapshot.save_snapshot", "snapshot.load_snapshot"):
        m[f"{name}.ms"] = (durations(name) * 1e3, "ms")
    m["snapshot.bytes"] = (count("snapshot.bytes"), "B")
    m["cli.main.self_s"] = (per_trial("cli.main", "self_s"), "s")
    m["trace.trial_s_traced"] = (_median(traced_s), "s")
    m["trace.trial_s_untraced"] = (_median(untraced_s), "s")
    m["trace.overhead_ratio"] = (_ratio(_median(traced_s), _median(untraced_s)), "ratio")
    return m


def self_check(used_prediction, setup_fold, trial_folds, trial_counts, expect_insertions):
    """Violations of the use/bypass prediction and of exact-count repetition."""
    problems = []
    for name in SPAN_NAMES:
        calls = sum(f[name]["calls"] for f in trial_folds if name in f)
        calls += setup_fold[name]["calls"] if name in setup_fold else 0
        if name in used_prediction and calls == 0:
            problems.append(f"{name}: predicted used, recorded no span")
        if name not in used_prediction and calls > 0:
            problems.append(f"{name}: predicted bypassed, recorded {calls} spans")
    inserted = [c["model.insertions"] for c in trial_counts]
    if expect_insertions != any(inserted):
        problems.append(f"model.insertions {inserted} contradicts the prediction")
    for name in SPAN_NAMES:
        calls = [f[name]["calls"] if name in f else 0 for f in trial_folds]
        if len(set(calls)) > 1:
            problems.append(f"{name}.calls differs across traced trials: {calls}")
    for name in EXACT_COUNTS:
        values = [c[name] for c in trial_counts]
        if len(set(values)) > 1:
            problems.append(f"{name} differs across traced trials: {values}")
    return problems
