"""Label histogram readout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrnet.labeling import LabelAssociations, classify_sample
from gwrnet.model import GROWING, HyperParams, Network, init_growing


def test_record_first_observation():
    counts = LabelAssociations()
    counts.record(3, "cup")
    assert counts.row(3) == {"cup": 1}


def test_record_accumulates_per_label():
    counts = LabelAssociations()
    for _ in range(4):
        counts.record(3, "cup")
    for _ in range(2):
        counts.record(3, "can")
    assert counts.row(3) == {"cup": 4, "can": 2}


def test_record_rows_are_isolated():
    counts = LabelAssociations()
    counts.record(3, "cup")
    assert counts.row(5) == {}


def test_total_records_is_the_sum_of_the_restored_counts():
    counts = LabelAssociations([(0, "a", 3)], replay_records=1)
    assert counts.total_records == 3 and counts.replay_records == 1
    counts.record(0, "b", replay=True)
    assert counts.total_records == 4 and counts.replay_records == 2
    with pytest.raises(ValueError, match="replay records exceed"):
        LabelAssociations([(0, "a", 3)], replay_records=4)


@pytest.mark.parametrize(
    "rows, replay_records, message",
    [
        ([(0, "a", 0)], 0, "has count 0, below 1"),
        ([(0, "a", -3)], 0, "has count -3, below 1"),
        ([(0, "a", 2)], -1, "replay_records must be nonnegative"),
        ([(0, "a", 2.0)], 0, r"label row \(0, 'a', 2.0\) needs an int id >= 0 and an int count"),
        ([(0, "a", True)], 0, r"label row \(0, 'a', True\) needs an int id >= 0 and an int count"),
        ([(-1, "a", 2)], 0, r"label row \(-1, 'a', 2\) needs an int id >= 0 and an int count"),
        ([(0.0, "a", 2)], 0, r"label row \(0.0, 'a', 2\) needs an int id >= 0 and an int count"),
        ([(0, "a", 2)], 0.5, "replay_records must be nonnegative and an int: 0.5"),
        ([(0, "a", 2)], False, "replay_records must be nonnegative and an int: False"),
    ],
    ids=[
        "zero-count", "negative-count", "negative-replay-records", "float-count",
        "bool-count", "negative-id", "float-id", "float-replay-records",
        "bool-replay-records",
    ],
)
def test_restored_counts_break_no_table_rule(rows, replay_records, message):
    """The table states its own rules, so a library caller cannot build one
    that saves but does not load."""
    with pytest.raises(ValueError, match=message):
        LabelAssociations(rows, replay_records)


@pytest.mark.parametrize(
    "rows",
    [[(0, "a", 1), (0, "a", 9)], [(0, ["a", 1], 1), (0, ("a", 1), 9)]],
    ids=["same-label", "list-and-tuple-label"],
)
def test_restored_label_row_given_twice_is_rejected(rows):
    with pytest.raises(ValueError, match="listed twice"):
        LabelAssociations(rows)


def test_predict_argmax():
    counts = LabelAssociations()
    for _ in range(4):
        counts.record(3, "cup")
    for _ in range(2):
        counts.record(3, "can")
    assert counts.predict(3) == "cup"


def test_predict_empty_row_is_absent():
    assert LabelAssociations().predict(3) is None


def test_predict_tie_goes_to_first_seen():
    counts = LabelAssociations()
    for _ in range(3):
        counts.record(1, "a")
    for _ in range(3):
        counts.record(1, "b")
    assert counts.predict(1) == "a"
    other = LabelAssociations()
    other.record(1, "b")
    for _ in range(3):
        other.record(1, "a")
    for _ in range(2):
        other.record(1, "b")
    assert other.predict(1) == "b"


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=1000))
def test_predict_invariant_under_count_scaling(scale):
    base = {"a": 3, "b": 7, "c": 1}
    counts = LabelAssociations()
    scaled = LabelAssociations()
    for label, c in base.items():
        for _ in range(c):
            counts.record(0, label)
        for _ in range(c * scale):
            scaled.record(0, label)
    assert counts.predict(0) == scaled.predict(0)


def classify(net, counts, frames):
    """Labels of the winners of one sequence's frames, matched in order from
    a fresh context, read out as evaluation does."""
    readout = [counts.predict(i) for i in net.neuron_ids]
    prev, labels = np.full(1, -1), []
    for x in frames:
        prev = net.match(x[None], prev)[0]
        labels.append(classify_sample(readout, int(prev[0])))
    return labels


def test_classify_sample_carries_context_across_frames():
    """Each unit's context descriptor equals its weight, and the second frame
    lies exactly between the units, so only the context carried from the
    first frame's winner decides the second winner."""
    hyper = HyperParams(num_contexts=1, alpha=(0.6, 0.4), n_max=10)
    w0, w1 = np.array([0.0, 0.0]), np.array([5.0, 5.0])
    net = Network(hyper, GROWING, [[w0, w0], [w1, w1]])
    counts = LabelAssociations()
    counts.record(0, "near")
    counts.record(1, "far")
    middle = np.array([2.5, 2.5])
    assert classify(net, counts, [w0, middle]) == ["near", "near"]
    assert classify(net, counts, [w1, middle]) == ["far", "far"]
    prev = net.match(w1[None], np.full(1, -1))[0]
    assert prev.tolist() == [1]
    got = net.match(middle[None], prev)
    # C_1 = beta * w_1 + (1 - beta) * c_{1,0}, with c_{1,0} = w_1
    query = np.array([[middle, w1 * (1.0 - hyper.beta) + hyper.beta * w1]])
    want = net._nearest_many(query)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[0].tolist() == [1]


def test_training_presentation_conservation():
    rng = np.random.default_rng(1)
    hyper = HyperParams(num_contexts=1, alpha=(0.8, 0.2), n_max=15)
    net = init_growing(2, hyper, (rng.normal(size=2), rng.normal(size=2)))
    counts = LabelAssociations()
    presented = 0
    for s in range(8):
        net.reset_context()
        base = rng.normal(size=2) * 3
        for _ in range(12):
            counts.record(net.step(base + 0.2 * rng.normal(size=2)).credited, f"obj{s % 4}")
            presented += 1
    # every labeled presentation lands in exactly one histogram cell
    assert sum(count for _, _, count in counts.items()) == presented
    assert counts.total_records == presented
    assert counts.replay_records == 0
