"""Snapshot persistence: canonical bytes and exact training continuation."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrnet.labeling import LabelAssociations
from gwrnet.model import HyperParams, init_growing, init_static
from gwrnet.replay import TemporalSynapses, replay_episode
from gwrnet.snapshot import load_snapshot, save_snapshot


def train_some(net, synapses, labels, stream, boundary=13):
    for i, x in enumerate(stream):
        if i % boundary == 0:
            net.reset_context()
        net.step(x, f"obj{i % 3}", synapses, labels)


def fresh_setup(seed=0, static=False):
    rng = np.random.default_rng(seed)
    hyper = HyperParams(num_contexts=2, alpha=(0.67, 0.24, 0.09), n_max=12)
    if static:
        net = init_static(3, hyper, -1.0, 1.0, seed)
    else:
        net = init_growing(3, hyper, (rng.normal(size=3), rng.normal(size=3)))
    return net, TemporalSynapses(), LabelAssociations(), rng


def test_round_trip_bytes_are_identical():
    net, synapses, labels, rng = fresh_setup(1)
    train_some(net, synapses, labels, rng.normal(size=(120, 3)) * 2)
    replay_episode(net, synapses, labels)
    text = save_snapshot(net, synapses, labels)
    loaded = load_snapshot(text)
    assert save_snapshot(*loaded) == text


def test_round_trip_restores_state_exactly():
    net, synapses, labels, rng = fresh_setup(2)
    train_some(net, synapses, labels, rng.normal(size=(90, 3)) * 2)
    net2, synapses2, labels2 = load_snapshot(save_snapshot(net, synapses, labels))
    assert net2.num_neurons == net.num_neurons
    assert net2.mode == net.mode
    assert net2.step_count == net.step_count
    assert net2.prev_bmu == net.prev_bmu
    assert np.array_equal(net2._units[: net2.num_neurons], net._units[: net.num_neurons])
    assert np.array_equal(net2._hab[: net2.num_neurons], net._hab[: net.num_neurons])
    assert np.array_equal(net2.global_context, net.global_context)
    assert net2.edges == net.edges
    assert list(synapses2.items()) == list(synapses.items())
    assert synapses2.total() == synapses.total()
    for neuron_id in net.neuron_ids:
        assert labels2.row(neuron_id) == labels.row(neuron_id)
    assert labels2.total_records == labels.total_records
    assert labels2.replay_records == labels.replay_records


@pytest.mark.parametrize("static", [False, True])
def test_loaded_network_continues_identically(static):
    rng = np.random.default_rng(5)
    stream = rng.normal(size=(160, 3)) * 2

    net_a, syn_a, lab_a, _ = fresh_setup(7, static=static)
    train_some(net_a, syn_a, lab_a, stream[:80])
    mid = save_snapshot(net_a, syn_a, lab_a)
    # note: 80 is mid-sequence for boundary 13, so the context stack and the
    # previous winner must survive the round trip for this to agree
    net_b, syn_b, lab_b = load_snapshot(mid)
    for i, x in enumerate(stream[80:], start=80):
        if i % 13 == 0:
            net_a.reset_context()
            net_b.reset_context()
        net_a.step(x, f"obj{i % 3}", syn_a, lab_a)
        net_b.step(x, f"obj{i % 3}", syn_b, lab_b)
    assert save_snapshot(net_a, syn_a, lab_a) == save_snapshot(net_b, syn_b, lab_b)


def test_prediction_ties_survive_round_trip():
    net, synapses, labels, _ = fresh_setup(3)
    labels.record(0, "b")
    labels.record(0, "a")
    labels.record(0, "a")
    labels.record(0, "b")  # tie a=2 b=2, first seen is "b"
    assert labels.predict(0) == "b"
    _, _, labels2 = load_snapshot(save_snapshot(net, synapses, labels))
    assert labels2.predict(0) == "b"


def test_tuple_labels_survive_round_trip():
    net, synapses, labels, _ = fresh_setup(3)
    labels.record(0, ("cup", 2))
    labels.record(1, ("cup", ("red", 1)))
    text = save_snapshot(net, synapses, labels)
    _, _, labels2 = load_snapshot(text)
    assert labels2.predict(0) == ("cup", 2)
    assert labels2.predict(1) == ("cup", ("red", 1))
    assert save_snapshot(*load_snapshot(text)) == text


def test_round_trip_without_contexts():
    rng = np.random.default_rng(6)
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=12)
    net = init_growing(3, hyper, (rng.normal(size=3), rng.normal(size=3)))
    synapses, labels = TemporalSynapses(), LabelAssociations()
    train_some(net, synapses, labels, rng.normal(size=(60, 3)) * 2)
    text = save_snapshot(net, synapses, labels)
    loaded = load_snapshot(text)
    loaded[0].check_invariants()
    assert save_snapshot(*loaded) == text


@pytest.mark.parametrize("key", ["hyper", "neurons", "weight"])
def test_missing_key_is_named(key):
    net, synapses, labels, _ = fresh_setup(4)
    text = save_snapshot(net, synapses, labels)
    doc = json.loads(text)
    if key == "weight":
        del doc["neurons"][1][key]
    else:
        del doc[key]
    with pytest.raises(ValueError, match=repr(key)):
        load_snapshot(json.dumps(doc))


def test_unsupported_schema_version_rejected():
    net, synapses, labels, _ = fresh_setup(4)
    text = save_snapshot(net, synapses, labels)
    broken = text.replace('"schema_version":1', '"schema_version":99', 1)
    with pytest.raises(ValueError, match="schema version"):
        load_snapshot(broken)


def test_loading_allocates_for_the_neurons_not_the_declared_capacity():
    hyper = HyperParams(n_max=1_000_000)
    net = init_growing(16, hyper, (np.zeros(16), np.ones(16)))
    text = save_snapshot(net, TemporalSynapses(), LabelAssociations())
    tracemalloc.start()
    try:
        loaded, _, _ = load_snapshot(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.hyper.n_max == 1_000_000
    assert peak < 1_000_000


# -- fuzzing ---------------------------------------------------------------------

def _trained_snapshot(seed):
    net, synapses, labels, rng = fresh_setup(seed)
    train_some(net, synapses, labels, rng.normal(size=(40, 3)) * 2)
    replay_episode(net, synapses, labels)
    return save_snapshot(net, synapses, labels)


# every fuzz case edits a fresh parse of this small trained snapshot
_FUZZ_TEXT = _trained_snapshot(9)

# integers stay small so no edit makes the loader allocate much memory;
# integral floats stand in for ints written as 2.0
_SMALL_INTS = st.integers(-3, 40)
_SCALARS = (
    st.none() | st.booleans() | _SMALL_INTS | _SMALL_INTS.map(float) | st.floats()
    | st.text(max_size=4)
)
_JSON_VALUES = (
    _SCALARS
    | st.lists(_SCALARS, max_size=3)
    | st.lists(st.lists(_SCALARS, max_size=3), max_size=2)
    | st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2)
)


def _paths(node, prefix=()):
    """Every path into a parsed JSON document, the root included, through the
    first two items of each list only: later items repeat their shape."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:2])
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_fuzzed_snapshot_loads_cleanly_or_raises_value_error(data):
    doc = json.loads(_FUZZ_TEXT)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_JSON_VALUES)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        network, _, _ = load_snapshot(json.dumps(doc))
    except ValueError:
        return
    network.check_invariants()
