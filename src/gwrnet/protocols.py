"""Experiment protocols: batch and class-incremental training.

Both protocols train static and growing networks under one capacity bound so
that runs differ only in mode; paired comparisons therefore isolate the
effect of growth. Batch training reshuffles the sequence order every epoch
and evaluates after each one. Incremental training presents one category
mini-batch at a time, exactly one iteration each, optionally followed by a
replay episode, and evaluates after each category.

All randomness is keyed by (seed, trial), so trials are independent,
reproducible and order-insensitive, which also makes them safe to run in
parallel worker processes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .datasets import Dataset, split_by_sessions
from .labeling import LabelAssociations, classify_sample
from .model import (
    GROWING, STATIC, HyperParams, Network, check_field_types, init_growing, init_static
)
from .replay import replay_episode
from .snapshot import save_snapshot

BATCH = "batch"
INCREMENTAL = "incremental"

# static-mode weight support: bounding box of the first presented batch,
# expanded by this fraction of the per-dimension range
BOUNDS_MARGIN = 0.05

DEFAULT_TEST_SESSIONS = (3, 7, 10)


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol configuration. ``n_max`` is copied into ``hyper``, so
    ``ProtocolSpec(hyper=HyperParams(n_max=50))`` equals ``ProtocolSpec()``."""

    kind: str = INCREMENTAL
    mode: str = GROWING
    replay: bool = False
    n_max: int = 300
    epochs: int = 0
    trials: int = 10
    seed: int = 1
    test_sessions: tuple[int, ...] = DEFAULT_TEST_SESSIONS
    hyper: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in (BATCH, INCREMENTAL):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.mode not in (GROWING, STATIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kind == BATCH and self.epochs < 1:
            raise ValueError("batch protocol needs epochs >= 1")
        if self.kind == INCREMENTAL and self.epochs != 0:
            raise ValueError(
                "incremental protocol fixes one iteration per mini-batch: epochs must be 0"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        # hyper takes n_max, whose rule the model states; the class is frozen
        object.__setattr__(self, "hyper", replace(self.hyper, n_max=self.n_max))
        if not self.test_sessions:
            raise ValueError("test_sessions must not be empty")
        # one spelling per session set, so equal streams echo equal configs
        if list(self.test_sessions) != sorted(set(self.test_sessions)):
            raise ValueError(
                f"test_sessions must be strictly increasing, got {list(self.test_sessions)}"
            )

    @property
    def label(self) -> str:
        """Short run name such as ``incremental/growing+replay``."""
        return f"{self.kind}/{self.mode}{'+replay' if self.replay else ''}"


@dataclass
class MetricsRecord:
    trial: int
    checkpoint: int
    mode: str
    replay: bool
    n_neurons: int
    acc_overall: float
    acc_seen: float
    forgetting_mean: float
    replay_steps: int
    wall_ms: float
    per_category: dict[str, float]


def evaluate(
    network: Network, label_counts: LabelAssociations, test_split: Dataset
) -> dict[str, tuple[int, int]]:
    """Per-category ``(correct, frames)`` counts of frame-level instance
    recognition over the test split. Every test sequence starts from a fresh
    context, and all of them advance one frame at a time in lockstep; each
    winner reads its label from one readout of the label table. Absent
    predictions count as wrong."""
    if test_split.num_frames == 0:
        raise ValueError("empty test split")
    counts = {c: [0, 0] for c in test_split.categories}
    # longest first, so the sequences still running at frame t are a prefix
    sequences = sorted(test_split.sequences, key=len, reverse=True)
    frames = np.zeros((len(sequences[0]), len(sequences), test_split.dim))
    for i, seq in enumerate(sequences):
        frames[: len(seq), i] = seq.features
    targets = [(counts[seq.category], seq.instance) for seq in sequences]
    readout = [label_counts.predict(i) for i in network.neuron_ids]
    prev = np.full(len(sequences), -1)
    running = len(sequences)
    for t, frame in enumerate(frames):
        while len(sequences[running - 1]) <= t:
            running -= 1
        winners, _, _ = network.match(frame[:running], prev[:running])
        prev[:running] = winners
        for (bucket, instance), winner in zip(targets, winners.tolist()):
            bucket[1] += 1
            if classify_sample(readout, winner) == instance:
                bucket[0] += 1
    return {c: (v[0], v[1]) for c, v in counts.items()}


def _accuracy(counts) -> float:
    """Correct over frames, summed over (correct, frames) pairs; 0 for none."""
    frames = sum(f for _, f in counts)
    return sum(c for c, _ in counts) / frames if frames else 0.0


def _expand_bounds(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    low = frames.min(axis=0)
    high = frames.max(axis=0)
    span = high - low
    return low - BOUNDS_MARGIN * span, high + BOUNDS_MARGIN * span


def _trial_rng(spec: ProtocolSpec, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((spec.seed, trial, 0)))


def _init_network(spec: ProtocolSpec, dim: int, first_batch: np.ndarray, trial: int) -> Network:
    if spec.mode == STATIC:
        low, high = _expand_bounds(first_batch)
        init_seed = int(np.random.SeedSequence((spec.seed, trial, 1)).generate_state(1)[0])
        return init_static(dim, spec.hyper, low, high, init_seed)
    if first_batch.shape[0] < 2:
        raise ValueError("growing mode needs at least two training frames")
    return init_growing(dim, spec.hyper, (first_batch[0], first_batch[1]))


def incremental_plan(
    spec: ProtocolSpec, train: Dataset, trial: int
) -> tuple[list[str], list[list]]:
    """Category presentation order and per-category mini-batches for a trial.

    Each mini-batch holds every training sequence of the category's
    instances, in the trial's shuffled session order; the plan depends only
    on (seed, trial), never on the network mode, so paired static and
    growing runs see identical streams.
    """
    rng = _trial_rng(spec, trial)
    categories = train.categories
    category_order = [categories[i] for i in rng.permutation(len(categories))]
    sessions = train.sessions
    rank = {sessions[i]: r for r, i in enumerate(rng.permutation(len(sessions)))}
    # a stable sort of (session, sequence id) order: ties keep sequence id order
    minibatches = [
        sorted(train.sequences_of(c), key=lambda s: (rank[s.session], s.instance))
        for c in category_order
    ]
    return category_order, minibatches


def _trial_plan(spec: ProtocolSpec, train: Dataset, trial: int):
    """Frames that seed the network, plus one (sequences, encountered
    categories) entry per checkpoint: a category mini-batch for the
    incremental protocol, a reshuffled epoch for batch."""
    if spec.kind == INCREMENTAL:
        category_order, minibatches = incremental_plan(spec, train, trial)
        seed_frames = np.concatenate([s.features for s in minibatches[0]])
        return seed_frames, [
            (batch, category_order[: index + 1]) for index, batch in enumerate(minibatches)
        ]
    rng = _trial_rng(spec, trial)
    sequences = train.sequences
    epoch_orders = [rng.permutation(len(sequences)) for _ in range(spec.epochs)]
    # the first presented batch is a full epoch, so static bounds and the
    # growing seed pair both come from the whole training split
    categories = train.categories
    return train.all_features(), [
        ([sequences[i] for i in order], categories) for order in epoch_orders
    ]


def _run_trial(job) -> tuple[list[MetricsRecord], str | None]:
    """Train, optionally replay, and score every checkpoint of the plan;
    returns the trial's records and, if asked for, its snapshot."""
    spec, train, test, trial, with_snapshot = job
    seed_frames, checkpoints = _trial_plan(spec, train, trial)
    network = _init_network(spec, train.dim, seed_frames, trial)
    label_counts = LabelAssociations()

    records: list[MetricsRecord] = []
    peaks: dict[str, float] = {}
    replay_steps = 0
    last = time.perf_counter()
    for checkpoint, (sequences, encountered) in enumerate(checkpoints, start=1):
        for seq in sequences:
            network.reset_context()
            for frame in seq.features:
                label_counts.record(network.step(frame).credited, seq.instance)
        network.reset_context()
        if spec.replay:
            replay_steps += replay_episode(network, label_counts).steps_applied
        counts = evaluate(network, label_counts, test)
        now = time.perf_counter()
        per_cat = {c: _accuracy([pair]) for c, pair in counts.items()}
        # a category's forgetting: its best accuracy since first presented minus now
        for c in encountered:
            if c in per_cat:
                peaks[c] = max(peaks.get(c, 0.0), per_cat[c])
        tracked = [c for c in encountered if c in peaks]
        forgetting = (
            sum(peaks[c] - per_cat[c] for c in tracked) / len(tracked) if tracked else 0.0
        )
        records.append(
            MetricsRecord(
                trial=trial,
                checkpoint=checkpoint,
                mode=spec.mode,
                replay=spec.replay,
                n_neurons=network.num_neurons,
                acc_overall=_accuracy(counts.values()),
                acc_seen=_accuracy([counts[c] for c in encountered if c in counts]),
                forgetting_mean=forgetting,
                replay_steps=replay_steps,
                wall_ms=(now - last) * 1000.0,
                per_category=per_cat,
            )
        )
        last = now
    snapshot = save_snapshot(network, label_counts) if with_snapshot else None
    return records, snapshot


@dataclass
class ProtocolResult:
    records: list[MetricsRecord]
    snapshots: dict[int, str]


def run_protocol(
    spec: ProtocolSpec,
    dataset: Dataset,
    workers: int = 1,
    with_snapshots: bool = False,
) -> ProtocolResult:
    """Run all trials of a protocol; record order is (trial, checkpoint). The
    sessions are split and checked once, before any trial starts."""
    train, test = split_by_sessions(dataset, spec.test_sessions)
    if train.num_frames == 0:
        raise ValueError(f"test_sessions {list(spec.test_sessions)} leave no session to train on")
    # With B the largest feature magnitude, every unit, context and query
    # component stays within (1 + 2 * BOUNDS_MARGIN) * B: units start as frames
    # or inside the expanded bounds, and adaptation, insertion and the context
    # rule form convex combinations. So every alpha-weighted squared norm or
    # distance is at most 4.84 * sum(alpha) * dim * B**2, and the screen's
    # 4 (M + Q) at most 9.68 times sum(alpha) * dim * B**2; a finite 16 times
    # that leaves nothing in matching that can overflow.
    big = max((float(np.abs(s.features).max(initial=0.0)) for s in dataset.sequences), default=0.0)
    alpha = sum(float(a) for a in spec.hyper.alpha)
    if not math.isfinite(16.0 * alpha * dataset.dim * big * big):
        raise ValueError(
            f"matching distances overflow: feature magnitude B = {big!r} and "
            f"sum(alpha) = {alpha!r} are too large"
        )
    jobs = [(spec, train, test, trial, with_snapshots) for trial in range(spec.trials)]
    if workers <= 1 or spec.trials == 1:
        outputs = [_run_trial(job) for job in jobs]
    else:
        # imported here: the pool's modules add to every run's memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, spec.trials)) as pool:
            outputs = list(pool.map(_run_trial, jobs))
    records = [record for trial_records, _ in outputs for record in trial_records]
    snapshots = {trial: text for trial, (_, text) in enumerate(outputs) if text is not None}
    return ProtocolResult(records=records, snapshots=snapshots)


# -- reporting ---------------------------------------------------------------


def metrics_census(records: list[MetricsRecord]) -> tuple[list[int], list[str]]:
    checkpoints = sorted({r.checkpoint for r in records})
    categories = sorted({c for r in records for c in r.per_category})
    return checkpoints, categories


def _cell(value) -> str:
    """One metrics.csv cell: bools as 0/1, floats in shortest round-trip
    form (numpy scalars included), everything else as text."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# metrics.csv leads with every MetricsRecord field except the wall time
# (not reproducible; it goes to the timing sidecar) and the per-category
# table, which becomes the trailing acc_<category> columns
_CSV_COLUMNS = [f.name for f in fields(MetricsRecord) if f.name not in ("wall_ms", "per_category")]
# summary.json statistics, in the key order it has always had
_SUMMARY_COLUMNS = ("acc_overall", "acc_seen", "forgetting_mean", "n_neurons", "replay_steps")


def write_metrics_csv(records: list[MetricsRecord], path) -> None:
    """Deterministic per-(trial, checkpoint) metrics table."""
    _, categories = metrics_census(records)
    header = _CSV_COLUMNS + [f"acc_{c}" for c in categories]
    ordered = sorted(records, key=lambda r: (r.trial, r.checkpoint))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in ordered:
            values = [getattr(r, name) for name in _CSV_COLUMNS]
            values += [r.per_category.get(c, 0.0) for c in categories]
            fh.write(",".join(map(_cell, values)) + "\n")


def write_timing_csv(records: list[MetricsRecord], path) -> None:
    ordered = sorted(records, key=lambda r: (r.trial, r.checkpoint))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,checkpoint,wall_ms\n")
        for r in ordered:
            fh.write(f"{r.trial},{r.checkpoint},{r.wall_ms:.3f}\n")


def summarize(spec: ProtocolSpec, records: list[MetricsRecord], config_echo=None) -> dict:
    """Per-checkpoint mean and stddev across trials, JSON-ready."""
    checkpoints, categories = metrics_census(records)
    by_checkpoint = {}
    for cp in checkpoints:
        rows = [r for r in records if r.checkpoint == cp]
        series = {name: [getattr(r, name) for r in rows] for name in _SUMMARY_COLUMNS}
        series.update({f"acc_{c}": [r.per_category.get(c, 0.0) for r in rows] for c in categories})
        by_checkpoint[str(cp)] = {}
        for name, values in series.items():
            values = np.array(values, dtype=float)
            by_checkpoint[str(cp)][name] = {"mean": float(values.mean()), "std": float(values.std())}
    doc = {
        "protocol": {
            f.name: list(v) if isinstance(v := getattr(spec, f.name), tuple) else v
            for f in fields(ProtocolSpec)
            if f.name != "hyper"
        },
        "checkpoints": checkpoints,
        "categories": categories,
        "by_checkpoint": by_checkpoint,
    }
    if config_echo is not None:
        doc["config"] = config_echo
    return doc
