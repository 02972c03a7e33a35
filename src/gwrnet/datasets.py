"""Temporally correlated labeled feature-vector streams.

A dataset is a collection of sequences, each one the frames of a single
object instance recorded in a single session. The synthetic generator builds
a desk-scale stand-in with the same shape as a multi-session object
recognition corpus: category centers on the unit sphere, instance prototypes
scattered around them, per-session shifts, and a mean-reverting random walk
within each sequence. Real pre-extracted features load from a flat CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import check_field_types

# pullback factor of the within-sequence walk; keeps the walk stationary
# around the session prototype instead of drifting off
WALK_PULLBACK = 0.9

CSV_FIXED_COLUMNS = ["label_category", "label_instance", "session", "sequence", "frame"]


@dataclass
class Sequence:
    """Ordered frames of one (instance, session) recording."""

    category: str
    instance: str
    session: int
    sequence_id: int
    features: np.ndarray  # (frames, dim)

    def __len__(self) -> int:
        return self.features.shape[0]


class Dataset:
    """Sequences ordered by (session, sequence id)."""

    def __init__(self, sequences: list[Sequence], dim: Optional[int] = None):
        dims = {seq.features.shape[1] for seq in sequences}
        if len(dims) > 1:
            raise ValueError(f"inconsistent feature dimensions: {sorted(dims)}")
        if dims:
            found = dims.pop()
            if dim is not None and dim != found:
                raise ValueError(f"declared dim {dim} does not match data dim {found}")
            dim = found
        elif dim is None:
            raise ValueError("empty dataset needs an explicit dim")
        self.sequences = sorted(sequences, key=lambda s: (s.session, s.sequence_id))
        self.dim = dim

    @property
    def categories(self) -> list[str]:
        return sorted({s.category for s in self.sequences})

    @property
    def instances(self) -> list[str]:
        return sorted({s.instance for s in self.sequences})

    @property
    def sessions(self) -> list[int]:
        return sorted({s.session for s in self.sequences})

    @property
    def num_frames(self) -> int:
        return sum(len(s) for s in self.sequences)

    def sequences_of(self, category: str) -> list[Sequence]:
        return [s for s in self.sequences if s.category == category]

    def all_features(self) -> np.ndarray:
        if not self.sequences:
            return np.zeros((0, self.dim))
        return np.concatenate([s.features for s in self.sequences], axis=0)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and dispersion of the synthetic benchmark.

    ``cluster_spread`` is the per-dimension std of instance prototypes around
    their category center; session shifts use half of it. ``walk_step`` is
    the per-frame step std of the mean-reverting within-sequence walk and
    ``noise`` the i.i.d. observation noise std.
    """

    categories: int = 10
    instances: int = 5
    sessions: int = 11
    dim: int = 16
    frames_per_seq: int = 20
    cluster_spread: float = 0.7
    walk_step: float = 0.1
    noise: float = 0.02

    def __post_init__(self):
        check_field_types(self)
        if min(self.categories, self.instances, self.sessions) < 1:
            raise ValueError("categories, instances and sessions must be at least 1")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.frames_per_seq < 1:
            raise ValueError("frames_per_seq must be at least 1")
        if min(self.cluster_spread, self.walk_step, self.noise) < 0:
            raise ValueError("spread, walk and noise must be nonnegative")


def _rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic synthetic dataset for the given spec and seed.

    Every random draw is keyed by (seed, role, indices), so sequences could
    be generated independently in any order and still come out identical.
    Category centers come from stream ``(seed, 0)`` and instance prototypes
    from ``(seed, 1, category, instance)``. Each sequence owns stream
    ``(seed, 2, category, instance, session)``: it draws its session shift
    first, then one (walk step, noise) pair ``(z_t, z'_t)`` of ``dim``-vectors
    per frame. With ``shifted`` the instance prototype plus the session shift,
    frame t is ``shifted + dev_t + noise * z'_t``, where
    ``dev_t = WALK_PULLBACK * dev_{t-1} + walk_step * z_t`` and ``dev_{-1} = 0``.
    """
    if seed < 0:
        raise ValueError(f"data_seed must be a non-negative integer, got {seed}")
    frames_per_seq, dim = spec.frames_per_seq, spec.dim
    centers = _rng(seed, 0).standard_normal((spec.categories, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    # one category's sequences advance together as the rows of these blocks;
    # row ii * sessions + (si - 1) is the sequence of (instance ii, session si)
    num_rows = spec.instances * spec.sessions
    shifted = np.empty((num_rows, dim))
    steps = np.empty((num_rows, frames_per_seq, 2, dim))
    scales = np.array([[spec.walk_step], [spec.noise]])
    dev = np.empty((num_rows, dim))

    sequences = []
    for ci in range(spec.categories):
        category = f"c{ci:02d}"
        for ii in range(spec.instances):
            proto = centers[ci] + spec.cluster_spread * _rng(
                seed, 1, ci, ii
            ).standard_normal(dim)
            for si in range(1, spec.sessions + 1):
                row = ii * spec.sessions + si - 1
                rng = _rng(seed, 2, ci, ii, si)
                shifted[row] = proto + (spec.cluster_spread / 2.0) * rng.standard_normal(dim)
                rng.standard_normal(out=steps[row])
        # the walk with the per-frame loop's IEEE operations in its order;
        # a product is commutative, so scaling every draw up front is exact
        steps *= scales
        frames = np.empty((num_rows, frames_per_seq, dim))
        dev.fill(0.0)
        for t in range(frames_per_seq):
            dev *= WALK_PULLBACK
            dev += steps[:, t, 0]
            np.add(shifted, dev, out=frames[:, t])
            frames[:, t] += steps[:, t, 1]
        for row in range(num_rows):
            ii, si = divmod(row, spec.sessions)
            sequences.append(
                Sequence(
                    category=category,
                    instance=f"{category}o{ii}",
                    session=si + 1,
                    sequence_id=0,  # assigned below
                    features=frames[row],
                )
            )
    # global sequence ids in (session, category, instance) order, names as text
    sequences.sort(key=lambda s: (s.session, s.category, s.instance))
    for seq_id, seq in enumerate(sequences):
        seq.sequence_id = seq_id
    return Dataset(sequences)


def write_features(dataset: Dataset, path) -> None:
    """Write the flat feature CSV; floats use shortest round-trip form."""
    header = CSV_FIXED_COLUMNS + [f"f{i}" for i in range(dataset.dim)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for seq in dataset.sequences:
            labels = [seq.category, seq.instance, str(seq.session), str(seq.sequence_id)]
            for t, row in enumerate(seq.features):
                cells = labels + [str(t)] + [repr(float(v)) for v in row]
                fh.write(",".join(cells) + "\n")


def load_features(path) -> Dataset:
    """Load a feature CSV written by :func:`write_features` (or compatible);
    a malformed file raises ValueError naming the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty file")
    header = lines[0].split(",")
    if header[: len(CSV_FIXED_COLUMNS)] != CSV_FIXED_COLUMNS:
        raise ValueError(
            f"line 1: header must start with {','.join(CSV_FIXED_COLUMNS)}"
        )
    feature_cols = header[len(CSV_FIXED_COLUMNS) :]
    dim = len(feature_cols)
    if dim < 1 or feature_cols != [f"f{i}" for i in range(dim)]:
        raise ValueError("line 1: feature columns must be f0..f{n-1}")

    # sequence id -> (category, instance, session) and its [start, stop) rows
    # in file order; frame indices must rise strictly within a sequence and a
    # sequence id must not reappear after another sequence started
    open_seq: Optional[int] = None
    seen: dict[int, tuple] = {}
    spans: dict[int, list[int]] = {}
    flat: list[float] = []
    row_lines: list[int] = []
    last_frame: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"line {lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        category, instance = cells[0], cells[1]
        try:
            session = int(cells[2])
            seq_id = int(cells[3])
            frame_index = int(cells[4])
            flat.extend(map(float, cells[5:]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        key = (category, instance, session)
        if seq_id in seen:
            if seen[seq_id] != key:
                raise ValueError(
                    f"line {lineno}: sequence {seq_id} changes labels mid-stream"
                )
            if open_seq != seq_id:
                raise ValueError(
                    f"line {lineno}: sequence {seq_id} is not contiguous"
                )
            if frame_index <= last_frame[seq_id]:
                raise ValueError(
                    f"line {lineno}: frame index {frame_index} does not increase"
                )
        else:
            seen[seq_id] = key
            spans[seq_id] = [len(row_lines), len(row_lines)]
        row_lines.append(lineno)
        spans[seq_id][1] = len(row_lines)
        last_frame[seq_id] = frame_index
        open_seq = seq_id
    if not row_lines:
        raise ValueError("line 2: no data rows")
    matrix = np.array(flat).reshape(len(row_lines), dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = row_lines[int(np.argmin(finite))]
        raise ValueError(f"line {bad}: non-finite feature value")
    sequences = [
        Sequence(
            category=seen[seq_id][0],
            instance=seen[seq_id][1],
            session=seen[seq_id][2],
            sequence_id=seq_id,
            features=matrix[start:stop],
        )
        for seq_id, (start, stop) in spans.items()
    ]
    return Dataset(sequences)


def split_by_sessions(dataset: Dataset, test_sessions) -> tuple[Dataset, Dataset]:
    """Disjoint (train, test) partition by session id; either part may be
    empty."""
    test_ids = set(test_sessions)
    unknown = test_ids - set(dataset.sessions)
    if unknown:
        raise ValueError(f"unknown session ids in test sessions: {sorted(unknown)}")
    train = [s for s in dataset.sequences if s.session not in test_ids]
    test = [s for s in dataset.sequences if s.session in test_ids]
    return Dataset(train, dim=dataset.dim), Dataset(test, dim=dataset.dim)
