"""Label histogram readout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrnet.labeling import LabelAssociations, classify_sample
from gwrnet.model import HyperParams, init_growing
from gwrnet.replay import TemporalSynapses


def labeled_net():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=10)
    net = init_growing(2, hyper, (np.array([0.0, 0.0]), np.array([5.0, 5.0])))
    counts = LabelAssociations()
    for _ in range(4):
        counts.record(0, "cup")
    return net, counts


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


def test_classify_sample_returns_winner_label():
    net, counts = labeled_net()
    assert classify_sample(net, counts, np.array([0.1, 0.0])) == "cup"


def test_classify_sample_absent_for_unlabeled_winner():
    net, counts = labeled_net()
    assert classify_sample(net, counts, np.array([5.0, 5.0])) is None


def test_classify_sample_is_pure():
    net, counts = labeled_net()
    weights_before = net._units.copy()
    hab_before = net._hab.copy()
    steps_before = net.step_count
    rows_before = {i: counts.row(i) for i in range(2)}
    prev_before = net.prev_bmu
    classify_sample(net, counts, np.array([0.1, 0.2]))
    assert np.array_equal(net._units, weights_before)
    assert np.array_equal(net._hab, hab_before)
    assert net.step_count == steps_before
    assert net.prev_bmu == prev_before
    assert {i: counts.row(i) for i in range(2)} == rows_before


def test_classify_sample_carries_context_across_frames():
    hyper = HyperParams(num_contexts=1, alpha=(0.6, 0.4), n_max=10)
    net = init_growing(2, hyper, (np.array([0.0, 0.0]), np.array([5.0, 5.0])))
    counts = LabelAssociations()
    counts.record(0, "near")
    counts.record(1, "far")
    ctx = net.new_match_context()
    classify_sample(net, counts, np.array([0.0, 0.0]), ctx)
    assert ctx.prev_bmu == 0
    classify_sample(net, counts, np.array([5.0, 5.0]), ctx)
    assert ctx.prev_bmu is not None


def test_training_presentation_conservation():
    rng = np.random.default_rng(1)
    hyper = HyperParams(num_contexts=1, alpha=(0.8, 0.2), n_max=15)
    net = init_growing(2, hyper, (rng.normal(size=2), rng.normal(size=2)))
    synapses = TemporalSynapses()
    counts = LabelAssociations()
    presented = 0
    for s in range(8):
        net.reset_context()
        base = rng.normal(size=2) * 3
        for _ in range(12):
            net.step(base + 0.2 * rng.normal(size=2), f"obj{s % 4}", synapses, counts)
            presented += 1
    # every labeled presentation lands in exactly one histogram cell
    assert sum(count for _, _, count in counts.items()) == presented
    assert counts.total_records == presented
    assert counts.replay_records == 0
