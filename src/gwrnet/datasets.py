"""Temporally correlated labeled feature-vector streams.

A dataset is a collection of sequences, each one the frames of a single
object instance recorded in a single session. The synthetic generator builds
a desk-scale stand-in with the same shape as a multi-session object
recognition corpus: category centers on the unit sphere, instance prototypes
scattered around them, per-session shifts, and a mean-reverting random walk
within each sequence. Real pre-extracted features load from a flat CSV.
"""

from __future__ import annotations

import itertools
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


def _rng(seed_words: tuple[int, ...], *keys: int) -> np.random.Generator:
    # numpy's little-endian 32-bit words for (seed, *keys); keys are below 2**32
    entropy = np.array(seed_words + keys, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


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

    A category's sequences advance their walks together. Sequence ids count
    sessions first, then (category, instance) names compared as text:
    ``c00o10`` comes before ``c00o2``.
    """
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    words = tuple(seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32))
    frames_per_seq, dim = spec.frames_per_seq, spec.dim
    centers = _rng(words, 0).standard_normal((spec.categories, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    block = (spec.instances, spec.sessions)
    frames = np.empty((spec.categories, *block, frames_per_seq, dim))
    shifted = np.empty((*block, dim))
    protos = np.empty((spec.instances, 1, dim))
    steps = np.empty((*block, frames_per_seq, 2, dim))
    scales = np.array([[spec.walk_step], [spec.noise]])
    dev = np.empty((*block, dim))
    for ci in range(spec.categories):
        for ii in range(spec.instances):
            _rng(words, 1, ci, ii).standard_normal(out=protos[ii, 0])
            for si in range(spec.sessions):
                rng = _rng(words, 2, ci, ii, si + 1)
                rng.standard_normal(out=shifted[ii, si])
                rng.standard_normal(out=steps[ii, si])
        # center + spread * z and proto + (spread / 2) * z' after the draws:
        # the same two IEEE operations per element as one vector at a time
        protos *= spec.cluster_spread
        protos += centers[ci]
        shifted *= spec.cluster_spread / 2.0
        shifted += protos
        # the walk with the per-frame loop's IEEE operations in its order;
        # a product is commutative, so scaling every draw up front is exact
        steps *= scales
        dev.fill(0.0)
        for t in range(frames_per_seq):
            dev *= WALK_PULLBACK
            dev += steps[:, :, t, 0]
            np.add(shifted, dev, out=frames[ci, :, :, t])
            frames[ci, :, :, t] += steps[:, :, t, 1]
    names = sorted((f"c{ci:02d}", f"c{ci:02d}o{ii}", ci, ii)
                   for ci in range(spec.categories) for ii in range(spec.instances))
    order = itertools.product(range(spec.sessions), names)
    return Dataset([
        Sequence(category, instance, si + 1, seq_id, frames[ci, ii, si])
        for seq_id, (si, (category, instance, ci, ii)) in enumerate(order)
    ])


def write_features(dataset: Dataset, path) -> None:
    """Write the flat feature CSV in one piece; floats use shortest round-trip
    form. Text that would not load back as ``dataset`` or that UTF-8 cannot
    encode raises ValueError before the file exists."""
    rows = [",".join(CSV_FIXED_COLUMNS + [f"f{i}" for i in range(dataset.dim)])]
    for seq in dataset.sequences:
        labels = [seq.category, seq.instance, str(seq.session), str(seq.sequence_id)]
        for t, row in enumerate(seq.features):
            rows.append(",".join(labels + [str(t)] + [repr(float(v)) for v in row]))
    text = "\n".join(rows) + "\n"
    del rows
    try:
        back = _parse_features(text)
    except ValueError as exc:
        raise ValueError(f"the feature CSV would not load: {exc}") from None
    # every field of each sequence, the features compared as one array
    key = lambda d: [{**vars(s), "features": len(s)} for s in d.sequences]
    if key(back) != key(dataset) or not np.array_equal(back.all_features(), dataset.all_features()):
        raise ValueError("the feature CSV would load back as another dataset")
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def load_features(path) -> Dataset:
    """Load a feature CSV; :func:`write_features` writes only text this loads
    back as the dataset it was given.

    These are all of the file's rules; breaking one raises ValueError naming
    the offending line, and ``gwrnet run`` exits 2:

    - line 1 is the header ``label_category,label_instance,session,sequence,
      frame,f0,...,f{n-1}`` with n >= 1, and every row has its column count;
    - the ``session``, ``sequence`` and ``frame`` cells are integers;
    - the rows of one sequence id are contiguous, keep the labels (category,
      instance, session) of its first row and have strictly rising frame
      indices; a new sequence may start at any frame index;
    - every feature cell is a finite float, and there is at least one row.

    Numeric cells are read by Python's ``int()`` and ``float()``, which accept
    surrounding whitespace, ``_`` between digits and non-ASCII decimal digits:
    ``1_0`` reads 10, and the Devanagari digit two reads 2.

    Lines end only at LF, CRLF or CR; any other character, a form feed or
    U+2028 included, belongs to its cell. Empty lines are skipped, and a
    UTF-8 byte-order mark is accepted.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return _parse_features(fh.read())


def _parse_features(text: str) -> Dataset:
    """Every rule :func:`load_features` lists, line ends included."""
    # the search for CRLF costs about 1 ms a megabyte, and most files hold no CR
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    del text  # lets CPython free the loader's text before the rows are parsed
    if lines == [""]:
        raise ValueError("line 1: empty file")
    header = lines[0].split(",")
    if header[: len(CSV_FIXED_COLUMNS)] != CSV_FIXED_COLUMNS:
        raise ValueError(f"line 1: header must start with {','.join(CSV_FIXED_COLUMNS)}")
    feature_cols = header[len(CSV_FIXED_COLUMNS) :]
    dim = len(feature_cols)
    if dim < 1 or feature_cols != [f"f{i}" for i in range(dim)]:
        raise ValueError("line 1: feature columns must be f0..f{n-1}")

    # sequence id -> (labels, first row) in file order; rows join only the
    # open sequence, so each sequence runs from its first row to the next's
    seen: dict[int, tuple] = {}
    open_seq: Optional[int] = None
    last_frame = 0
    flat: list[float] = []
    row_lines: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} columns, got {len(cells)}")
        category, instance = cells[0], cells[1]
        try:
            session = int(cells[2])
            seq_id = int(cells[3])
            frame_index = int(cells[4])
            flat.extend(map(float, cells[5:]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        labels = (category, instance, session)
        if seq_id in seen:
            if seen[seq_id][0] != labels:
                raise ValueError(f"line {lineno}: sequence {seq_id} changes labels mid-stream")
            if open_seq != seq_id:
                raise ValueError(f"line {lineno}: sequence {seq_id} is not contiguous")
            if frame_index <= last_frame:
                raise ValueError(f"line {lineno}: frame index {frame_index} does not increase")
        else:
            seen[seq_id] = (labels, len(row_lines))
            open_seq = seq_id
        row_lines.append(lineno)
        last_frame = frame_index
    if not row_lines:
        raise ValueError("line 2: no data rows")
    matrix = np.array(flat).reshape(len(row_lines), dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = row_lines[int(np.argmin(finite))]
        raise ValueError(f"line {bad}: non-finite feature value")
    stops = [start for _, start in seen.values()][1:] + [len(row_lines)]
    return Dataset([
        Sequence(*labels, seq_id, matrix[start:stop])
        for (seq_id, (labels, start)), stop in zip(seen.items(), stops)
    ])


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
