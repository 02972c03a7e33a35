"""Synthetic generation, CSV round-trip, and session splits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwrnet.datasets import (
    CSV_FIXED_COLUMNS,
    WALK_PULLBACK,
    Dataset,
    Sequence,
    SyntheticSpec,
    generate_synthetic,
    load_features,
    split_by_sessions,
    write_features,
)

SMALL = SyntheticSpec(
    categories=4,
    instances=3,
    sessions=5,
    dim=8,
    frames_per_seq=6,
    cluster_spread=0.3,
    walk_step=0.05,
    noise=0.01,
)


def test_generator_counts_match_spec():
    spec = SyntheticSpec()
    dataset = generate_synthetic(spec, seed=7)
    assert len(dataset.sequences) == 10 * 5 * 11
    assert dataset.num_frames == 10 * 5 * 11 * 20
    assert dataset.dim == 16
    assert len(dataset.categories) == 10
    assert len(dataset.instances) == 50
    assert dataset.sessions == list(range(1, 12))


def test_generator_is_deterministic():
    a = generate_synthetic(SMALL, seed=3)
    b = generate_synthetic(SMALL, seed=3)
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.category == sb.category
        assert sa.instance == sb.instance
        assert sa.session == sb.session
        assert sa.sequence_id == sb.sequence_id
        assert np.array_equal(sa.features, sb.features)
    c = generate_synthetic(SMALL, seed=4)
    assert not np.array_equal(a.sequences[0].features, c.sequences[0].features)


def test_generator_degenerate_walk_gives_constant_sequences():
    spec = SyntheticSpec(
        categories=2,
        instances=2,
        sessions=2,
        dim=4,
        frames_per_seq=5,
        cluster_spread=0.3,
        walk_step=0.0,
        noise=0.0,
    )
    dataset = generate_synthetic(spec, seed=1)
    for seq in dataset.sequences:
        assert np.all(seq.features == seq.features[0])


def test_generator_validates_spec():
    with pytest.raises(ValueError, match="^dim must be at least 2$"):
        SyntheticSpec(dim=0)
    with pytest.raises(ValueError):
        SyntheticSpec(categories=0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise=-0.1)
    for spread in (float("nan"), float("inf"), "0.5", True):
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(cluster_spread=spread)
    for bad in ({"dim": 3.0}, {"categories": True}, {"frames_per_seq": np.int64(5)}):
        with pytest.raises(ValueError, match="must be an int"):
            SyntheticSpec(**bad)


@pytest.mark.parametrize(
    "seed", [True, 1.0, np.int64(1), "1", -1], ids=["bool", "float", "numpy-int", "text", "negative"]
)
def test_generator_seed_is_a_non_negative_int(seed):
    """The seed follows ProtocolSpec.seed's rule: an int (a bool is none) of
    at least 0."""
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        generate_synthetic(SMALL, seed=seed)


def test_sequences_are_contiguous_per_triple():
    dataset = generate_synthetic(SMALL, seed=5)
    triples = {(s.category, s.instance, s.session) for s in dataset.sequences}
    assert len(triples) == len(dataset.sequences)


def _stream(*entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _per_frame_synthetic(spec, seed):
    """Reference generator: one sequence at a time, one frame at a time.
    Returns (category, instance, session, sequence id, frames) tuples in
    sequence-id order."""
    centers = _stream(seed, 0).standard_normal((spec.categories, spec.dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = []
    for ci in range(spec.categories):
        for ii in range(spec.instances):
            proto = centers[ci] + spec.cluster_spread * _stream(seed, 1, ci, ii).standard_normal(
                spec.dim
            )
            for si in range(1, spec.sessions + 1):
                rng = _stream(seed, 2, ci, ii, si)
                shifted = proto + (spec.cluster_spread / 2.0) * rng.standard_normal(spec.dim)
                frames = np.empty((spec.frames_per_seq, spec.dim))
                dev = np.zeros(spec.dim)
                for t in range(spec.frames_per_seq):
                    dev = WALK_PULLBACK * dev + spec.walk_step * rng.standard_normal(spec.dim)
                    frames[t] = shifted + dev + spec.noise * rng.standard_normal(spec.dim)
                rows.append((si, f"c{ci:02d}", f"c{ci:02d}o{ii}", frames))
    rows.sort(key=lambda row: row[:3])
    return [
        (category, instance, session, seq_id, frames)
        for seq_id, (session, category, instance, frames) in enumerate(rows)
    ]


_SCALES = st.sampled_from([0.0, 0.02, 0.1, 0.7])


@settings(max_examples=150, deadline=None)
@given(
    spec=st.builds(
        SyntheticSpec,
        categories=st.integers(1, 3),
        instances=st.integers(1, 3),
        sessions=st.integers(1, 3),
        dim=st.integers(2, 5),
        frames_per_seq=st.integers(1, 6),
        cluster_spread=_SCALES,
        walk_step=_SCALES,
        noise=_SCALES,
    ),
    # 2**32 and 2**64 + 3 span two and three 32-bit entropy words
    seed=st.sampled_from([0, 1, 7, 101, 2**32 - 1, 2**32, 2**64 + 3]),
)
# names past one digit, where text order differs from index order
@example(spec=SyntheticSpec(categories=2, instances=12, sessions=2, dim=2, frames_per_seq=2),
         seed=3)
@example(spec=SyntheticSpec(categories=101, instances=1, sessions=2, dim=2, frames_per_seq=1),
         seed=101)
def test_generator_matches_the_per_frame_reference_bytewise(spec, seed):
    dataset = generate_synthetic(spec, seed)
    expected = _per_frame_synthetic(spec, seed)
    assert len(dataset.sequences) == len(expected)
    for seq, (category, instance, session, seq_id, frames) in zip(dataset.sequences, expected):
        assert (seq.category, seq.instance, seq.session, seq.sequence_id) == (
            category, instance, session, seq_id
        )
        assert seq.features.shape == frames.shape
        assert seq.features.tobytes() == frames.tobytes()


def test_csv_round_trip_is_exact(tmp_path):
    dataset = generate_synthetic(SMALL, seed=11)
    # -0.0 equals 0.0, so only the written text shows that its sign survived
    dataset.sequences[0].features[0, 0] = -0.0
    path = tmp_path / "features.csv"
    write_features(dataset, path)
    loaded = load_features(path)
    assert loaded.dim == dataset.dim
    assert len(loaded.sequences) == len(dataset.sequences)
    for sa, sb in zip(dataset.sequences, loaded.sequences):
        assert (sa.category, sa.instance, sa.session, sa.sequence_id) == (
            sb.category,
            sb.instance,
            sb.session,
            sb.sequence_id,
        )
        assert np.array_equal(sa.features, sb.features)
    # the file is a fixed point: the loaded set writes the same bytes
    again = tmp_path / "again.csv"
    write_features(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_csv_round_trip_keeps_a_label_holding_a_line_separator(tmp_path):
    """U+2028 is no line end in a feature CSV, so a label may hold it."""
    dataset = generate_synthetic(SMALL, seed=11)
    dataset.sequences[0].instance = "cup\u2028left"
    path = tmp_path / "features.csv"
    write_features(dataset, path)
    loaded = load_features(path)
    assert [s.instance for s in loaded.sequences] == [s.instance for s in dataset.sequences]
    assert loaded.all_features().tobytes() == dataset.all_features().tobytes()


def _unloadable(dataset, case):
    """Edit ``dataset`` so that its CSV text would not load back as it."""
    first, second = dataset.sequences[:2]
    if case == "empty":
        dataset.sequences = []
    elif case == "no-features":
        dataset.dim = 0
        for seq in dataset.sequences:
            seq.features = seq.features[:, :0]
    elif case in ("comma", "cr", "lf"):
        sep = {"comma": ",", "cr": "\r", "lf": "\n"}[case]
        first.instance = f"cup{sep}left"
    elif case == "category":
        second.category = "c,00"
    elif case in ("nan", "inf"):
        second.features[1, 0] = float(case)
    elif case == "no-frames":
        second.features = second.features[:0]
    elif case == "lone-surrogate":
        second.instance = "cup\ud800"
    else:  # a shared sequence id, under the same labels or another session
        second.sequence_id = first.sequence_id
        if case == "shared-id":
            second.category, second.instance = first.category, first.instance
        else:
            second.session = first.session + 1


@pytest.mark.parametrize("case", [
    "empty", "no-features", "comma", "cr", "lf", "category", "nan", "inf", "shared-id",
    "shared-id-session", "no-frames", "lone-surrogate",
])
def test_csv_writer_rejects_what_the_loader_rejects(tmp_path, case):
    """Each edit makes text that UTF-8 cannot encode, that load_features
    rejects or that it loads as another dataset (the unchecked writer's
    output, written here by hand), so the writer raises before creating
    the file."""
    dataset = generate_synthetic(SMALL, seed=11)
    _unloadable(dataset, case)
    path = tmp_path / "features.csv"
    with pytest.raises(ValueError):
        write_features(dataset, path)
    assert not path.exists()
    header = ",".join(["label_category", "label_instance", "session", "sequence", "frame"]
                      + [f"f{i}" for i in range(dataset.dim)])
    rows = [
        ",".join([s.category, s.instance, str(s.session), str(s.sequence_id), str(t)]
                 + [repr(float(v)) for v in frame])
        for s in dataset.sequences for t, frame in enumerate(s.features)
    ]
    text = "\n".join([header] + rows) + "\n"
    if case == "lone-surrogate":
        with pytest.raises(UnicodeEncodeError):
            text.encode("utf-8")
        return
    path.write_text(text, encoding="utf-8", newline="")
    if case == "no-frames":
        assert len(load_features(path).sequences) == len(dataset.sequences) - 1
        return
    with pytest.raises(ValueError):
        load_features(path)


def _reference_write_features(dataset, path) -> None:
    """The writer that wrote row by row after restating the loader's rules,
    which the one parsed text replaced, kept here as its byte oracle."""
    ids = [seq.sequence_id for seq in dataset.sequences]
    if not (dataset.num_frames and dataset.dim) or len(set(ids)) < len(ids):
        raise ValueError("a feature CSV needs a frame, a feature and distinct sequence ids")
    for seq in dataset.sequences:
        if any(c in seq.category + seq.instance for c in ",\r\n"):
            raise ValueError(f"labels {seq.category!r}, {seq.instance!r} hold a comma or line break")
        if not np.isfinite(seq.features).all():
            raise ValueError(f"sequence {seq.sequence_id} has non-finite feature values")
    header = CSV_FIXED_COLUMNS + [f"f{i}" for i in range(dataset.dim)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for seq in dataset.sequences:
            labels = [seq.category, seq.instance, str(seq.session), str(seq.sequence_id)]
            for t, row in enumerate(seq.features):
                cells = labels + [str(t)] + [repr(float(v)) for v in row]
                fh.write(",".join(cells) + "\n")


@pytest.mark.parametrize("spec, seed", [
    (SyntheticSpec(), 7),
    (SyntheticSpec(categories=3, instances=2, sessions=4, dim=6, frames_per_seq=5), 1),
    (SyntheticSpec(categories=5), 101),
], ids=["default-seed-7", "ci-gen-data", "cli-benchmark-seed-101"])
def test_csv_writer_matches_the_row_by_row_writer_bytewise(tmp_path, spec, seed):
    dataset = generate_synthetic(spec, seed)
    write_features(dataset, tmp_path / "new.csv")
    _reference_write_features(dataset, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_csv_writer_is_deterministic(tmp_path):
    dataset = generate_synthetic(SMALL, seed=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_features(dataset, a)
    write_features(dataset, b)
    assert a.read_bytes() == b.read_bytes()


def test_loader_small_valid_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "label_category,label_instance,session,sequence,frame,f0,f1\n"
        "cat,cat_a,1,0,0,0.5,1.5\n"
        "cat,cat_a,1,0,1,0.25,1.25\n"
        "dog,dog_a,2,1,0,-1.0,2.0\n"
    )
    dataset = load_features(path)
    assert dataset.dim == 2
    assert dataset.num_frames == 3
    assert dataset.sessions == [1, 2]


_HEADER = "label_category,label_instance,session,sequence,frame,f0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty file"),
        ("a,b,c\n1,2,3\n",
         "line 1: header must start with label_category,label_instance,session,sequence,frame"),
        ("label_category,label_instance,session,sequence,frame,f1,f0\ncat,cat_a,1,0,0,0.5,1.5\n",
         "line 1: feature columns must be f0..f{n-1}"),
        (_HEADER, "line 2: no data rows"),
        (_HEADER + "cat,cat_a,1,0,0,0.5\ndog,dog_a,1,1,0,0.5\ncat,cat_a,1,0,1,0.5\n",
         "line 4: sequence 0 is not contiguous"),
        (_HEADER + "cat,cat_a,1,0,0,0.5\ndog,dog_a,1,0,1,0.5\n",
         "line 3: sequence 0 changes labels mid-stream"),
        (_HEADER + "cat,cat_a,1,0,0,0.5\ndog,dog_a,1,1,0,0.5\ncat,cat_b,1,0,1,0.5\n",
         "line 4: sequence 0 changes labels mid-stream"),
        (_HEADER + "cat,cat_a,1,0,0,oops\n", "line 2: could not convert string to float: 'oops'"),
        (_HEADER + "cat,cat_a,1,0,3,0.5\ncat,cat_a,1,0,3,0.5\n",
         "line 3: frame index 3 does not increase"),
        # the line count includes the empty lines the loader skips
        (_HEADER + "cat,cat_a,1,0,0,0.5\n\ncat,cat_a,1,0,1,inf\ncat,cat_a,1,0,2,-inf\n",
         "line 4: non-finite feature value"),
        # a new sequence may start below the last frame index of the one before
        (_HEADER + "cat,cat_a,1,0,5,0.5\ncat,cat_a,1,0,9,1.5\ndog,dog_a,1,1,0,2.5\n", None),
        # lines end only at line ends: a form-feed line is not empty, and a
        # U+0085 or U+2028 in a label or a vertical tab after a number ends no line
        (_HEADER + "cat,cat_a,1,0,0,0.5\n\f\ncat,cat_a,1,0,1,nan\n",
         "line 3: expected 6 columns, got 1"),
        (_HEADER + "cat\x85,cat_a,1,0,0,0.5\ncat\x85,cat_a,1,0,1,nan\n",
         "line 3: non-finite feature value"),
        (_HEADER + "cat,cat\u2028a,1,0,0,0.5\ncat,cat\u2028a,1,0,1,nan\n",
         "line 3: non-finite feature value"),
        (_HEADER + "cat,cat_a,1,0,0,1.0\x0b\ncat,cat_a,1,0,1,nan\n",
         "line 3: non-finite feature value"),
    ],
    ids=["empty", "header-start", "feature-names", "header-only", "sequence-reappears",
         "labels-change", "reappears-with-new-labels", "non-numeric-cell", "repeated-frame-index",
         "infinite-after-empty-line", "new-sequence-restarts-frames",
         "form-feed-line", "next-line-in-label", "line-separator-in-label",
         "vertical-tab-in-cell"],
)
def test_loader_names_the_line_of_each_rule(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    if message is None:
        loaded = load_features(path).sequences
        assert [(s.sequence_id, s.features.ravel().tolist()) for s in loaded] == [
            (0, [0.5, 1.5]), (1, [2.5])
        ]
        return
    with pytest.raises(ValueError) as info:
        load_features(path)
    assert str(info.value) == message


def test_loader_reads_numeric_cells_with_python_int_and_float(tmp_path):
    """The documented reach of int() and float(): underscores between
    digits, surrounding whitespace and non-ASCII decimal digits."""
    path = tmp_path / "forms.csv"
    path.write_text(_HEADER + "cat,cat_a,1_0,0,0, 0.5\ncat,cat_a,1_0,0,1,\u0968\n",
                    encoding="utf-8")
    (seq,) = load_features(path).sequences
    assert seq.session == 10
    assert seq.features.ravel().tolist() == [0.5, 2.0]


def test_loader_reads_a_byte_order_mark_and_crlf_lines(tmp_path):
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark and end
    lines with CRLF; such a copy loads to the same dataset."""
    plain = tmp_path / "plain.csv"
    write_features(generate_synthetic(SMALL, seed=11), plain)
    exported = tmp_path / "exported.csv"
    exported.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    a, b = load_features(plain), load_features(exported)
    assert a.dim == b.dim and len(a.sequences) == len(b.sequences)
    for sa, sb in zip(a.sequences, b.sequences):
        assert (sa.category, sa.instance, sa.session, sa.sequence_id) == (
            sb.category, sb.instance, sb.session, sb.sequence_id
        )
        assert sa.features.tobytes() == sb.features.tobytes()


def test_split_by_sessions_partition():
    dataset = generate_synthetic(SyntheticSpec(), seed=2)
    train, test = split_by_sessions(dataset, [3, 7, 10])
    assert sorted(set(train.sessions)) == [1, 2, 4, 5, 6, 8, 9, 11]
    assert sorted(set(test.sessions)) == [3, 7, 10]
    train_ids = {s.sequence_id for s in train.sequences}
    test_ids = {s.sequence_id for s in test.sequences}
    assert not train_ids & test_ids
    assert len(train_ids) + len(test_ids) == len(dataset.sequences)


def test_split_unknown_session():
    dataset = generate_synthetic(SMALL, seed=2)
    with pytest.raises(ValueError, match=r"^unknown session ids in test sessions: \[99\]$"):
        split_by_sessions(dataset, [99])


def test_split_all_sessions_to_test_warns():
    dataset = generate_synthetic(SMALL, seed=2)
    train, test = split_by_sessions(dataset, dataset.sessions)
    assert train.num_frames == 0
    assert test.num_frames == dataset.num_frames


def nearest_prototype_accuracy(dataset):
    """Oracle: classify each frame by the nearest per-instance mean."""
    instances = dataset.instances
    means = {}
    for name in instances:
        rows = [s.features for s in dataset.sequences if s.instance == name]
        means[name] = np.concatenate(rows).mean(axis=0)
    proto = np.stack([means[name] for name in instances])
    correct = 0
    for seq in dataset.sequences:
        for row in seq.features:
            d = np.sum((proto - row) ** 2, axis=1)
            if instances[int(np.argmin(d))] == seq.instance:
                correct += 1
    return correct / dataset.num_frames


def test_small_spread_data_is_separable_by_nearest_prototype():
    spec = SyntheticSpec(
        categories=5,
        instances=3,
        sessions=4,
        dim=16,
        frames_per_seq=10,
        cluster_spread=0.15,
        walk_step=0.02,
        noise=0.01,
    )
    dataset = generate_synthetic(spec, seed=9)
    assert nearest_prototype_accuracy(dataset) > 0.95


def test_default_benchmark_is_separable_by_nearest_prototype():
    dataset = generate_synthetic(SyntheticSpec(), seed=1)
    assert nearest_prototype_accuracy(dataset) > 0.95


# -- fuzzing ---------------------------------------------------------------------

_FUZZ_CSV = (
    "label_category,label_instance,session,sequence,frame,f0,f1\n"
    "cat,cat_a,1,0,0,0.5,1.5\n"
    "cat,cat_a,1,0,1,0.25,1.25\n"
    "dog,dog_a,1,1,0,-1.0,2.0\n"
    "dog,dog_a,2,2,0,-1.5,2.5\n"
    "dog,dog_a,2,2,1,-1.25,2.25\n"
)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
_CELLS = st.sampled_from(["", "0", "-1", "2", "1.5", "nan", "inf", "1e400", "x", " 3"]) | _TEXT


@st.composite
def _edited_csv(draw):
    """``_FUZZ_CSV`` with one line edited: replaced by drawn text, one of
    its cells replaced, deleted, duplicated, or moved to another place."""
    lines = _FUZZ_CSV.splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["line", "cell", "delete", "duplicate", "move"]))
    if edit == "line":
        lines[index] = draw(_TEXT)
    elif edit == "cell":
        cells = lines[index].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELLS)
        lines[index] = ",".join(cells)
    elif edit == "delete":
        del lines[index]
    elif edit == "duplicate":
        lines.insert(index, lines[index])
    else:
        line = lines.pop(index)
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


def _reference_load_features(path) -> Dataset:
    """The loader with a per-sequence span table and last-frame table, which
    the one-open-sequence loop replaced, kept here as its oracle."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    if lines == [""]:
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

    open_seq = None
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


def _load_outcome(load, path):
    """A loader's sequences (labels, id, feature bytes) in order, or the
    message of the ValueError it raised."""
    try:
        dataset = load(path)
    except ValueError as exc:
        return str(exc)
    return dataset.dim, [
        (s.category, s.instance, s.session, s.sequence_id, s.features.shape,
         s.features.tobytes())
        for s in dataset.sequences
    ]


@settings(max_examples=400, deadline=None)
@given(_edited_csv())
def test_fuzzed_feature_csv_loads_or_raises_feature_file_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_text(text, encoding="utf-8")
    outcome = _load_outcome(load_features, path)
    assert outcome == _load_outcome(_reference_load_features, path)
    if isinstance(outcome, str):
        return
    frames = load_features(path).all_features()
    assert frames.shape[1] == outcome[0] and np.isfinite(frames).all()
