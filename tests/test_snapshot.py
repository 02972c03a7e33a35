"""Snapshot persistence: canonical bytes and exact training continuation."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrnet.labeling import LabelAssociations
from gwrnet.model import HyperParams, init_growing, init_static
from gwrnet.replay import replay_episode
from gwrnet.snapshot import load_snapshot, save_snapshot


def train_some(net, labels, stream, boundary=13):
    for i, x in enumerate(stream):
        if i % boundary == 0:
            net.reset_context()
        labels.record(net.step(x).credited, f"obj{i % 3}")


def fresh_setup(seed=0, static=False):
    rng = np.random.default_rng(seed)
    hyper = HyperParams(num_contexts=2, alpha=(0.67, 0.24, 0.09), n_max=12)
    if static:
        net = init_static(3, hyper, -1.0, 1.0, seed)
    else:
        net = init_growing(3, hyper, (rng.normal(size=3), rng.normal(size=3)))
    return net, LabelAssociations(), rng


def test_round_trip_bytes_are_identical():
    net, labels, rng = fresh_setup(1)
    train_some(net, labels, rng.normal(size=(120, 3)) * 2)
    replay_episode(net, labels)
    text = save_snapshot(net, labels)
    loaded = load_snapshot(text)
    assert save_snapshot(*loaded) == text


def test_round_trip_restores_state_exactly():
    net, labels, rng = fresh_setup(2)
    train_some(net, labels, rng.normal(size=(90, 3)) * 2)
    text = save_snapshot(net, labels)
    net2, labels2 = load_snapshot(text)
    assert net.prev_bmu is not None  # mid-sequence, so the context is not zero
    assert save_snapshot(net2, labels2) == text
    assert net2.num_neurons == net.num_neurons
    assert net2.mode == net.mode
    assert net2.step_count == net.step_count
    assert net2.prev_bmu == net.prev_bmu
    assert np.array_equal(net2._units[: net2.num_neurons], net._units[: net.num_neurons])
    assert np.array_equal(net2._hab[: net2.num_neurons], net._hab[: net.num_neurons])
    assert np.array_equal(net2.global_context, net.global_context)
    assert net2.edges == net.edges
    assert net2.transitions == net.transitions
    for neuron_id in net.neuron_ids:
        assert labels2.row(neuron_id) == labels.row(neuron_id)
    assert labels2.total_records == labels.total_records
    assert labels2.replay_records == labels.replay_records


@pytest.mark.parametrize("static", [False, True])
def test_loaded_network_continues_identically(static):
    rng = np.random.default_rng(5)
    stream = rng.normal(size=(160, 3)) * 2

    net_a, lab_a, _ = fresh_setup(7, static=static)
    train_some(net_a, lab_a, stream[:80])
    mid = save_snapshot(net_a, lab_a)
    # note: 80 is mid-sequence for boundary 13, so the context stack and the
    # previous winner must survive the round trip for this to agree
    net_b, lab_b = load_snapshot(mid)
    for i, x in enumerate(stream[80:], start=80):
        if i % 13 == 0:
            net_a.reset_context()
            net_b.reset_context()
        lab_a.record(net_a.step(x).credited, f"obj{i % 3}")
        lab_b.record(net_b.step(x).credited, f"obj{i % 3}")
    assert save_snapshot(net_a, lab_a) == save_snapshot(net_b, lab_b)


def test_prediction_ties_survive_round_trip():
    net, labels, _ = fresh_setup(3)
    labels.record(0, "b")
    labels.record(0, "a")
    labels.record(0, "a")
    labels.record(0, "b")  # tie a=2 b=2, first seen is "b"
    assert labels.predict(0) == "b"
    text = save_snapshot(net, labels)
    _, labels2 = load_snapshot(text)
    assert labels2.predict(0) == "b"
    # a neuron's rows are in its recording order, so swapped rows still load
    # and break the tie the other way
    doc = json.loads(text)
    assert doc["label_counts"] == [[0, "b", 2], [0, "a", 2]]
    doc["label_counts"].reverse()
    _, swapped = load_snapshot(json.dumps(doc))
    assert swapped.predict(0) == "a"


def test_tuple_labels_survive_round_trip():
    net, labels, _ = fresh_setup(3)
    labels.record(0, ("cup", 2))
    labels.record(1, ("cup", ("red", 1)))
    text = save_snapshot(net, labels)
    _, labels2 = load_snapshot(text)
    assert labels2.predict(0) == ("cup", 2)
    assert labels2.predict(1) == ("cup", ("red", 1))
    assert save_snapshot(*load_snapshot(text)) == text


def test_round_trip_without_contexts():
    rng = np.random.default_rng(6)
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=12)
    net = init_growing(3, hyper, (rng.normal(size=3), rng.normal(size=3)))
    labels = LabelAssociations()
    train_some(net, labels, rng.normal(size=(60, 3)) * 2)
    text = save_snapshot(net, labels)
    loaded = load_snapshot(text)
    loaded[0].check_invariants()
    assert save_snapshot(*loaded) == text


@pytest.mark.parametrize("key", ["hyper", "neurons", "weight"])
def test_missing_key_is_named(key):
    net, labels, _ = fresh_setup(4)
    text = save_snapshot(net, labels)
    doc = json.loads(text)
    if key == "weight":
        del doc["neurons"][1][key]
    else:
        del doc[key]
    with pytest.raises(ValueError, match=repr(key)):
        load_snapshot(json.dumps(doc))


def test_deeply_nested_json_is_a_value_error():
    """The JSON parser gives up on deep nesting with RecursionError; the
    loader reports it as the malformed document it is."""
    with pytest.raises(ValueError, match="nested too deeply"):
        load_snapshot("[" * 100_000)


def test_unsupported_schema_version_rejected():
    """Only the int 1 is schema 1: a bool or a float equal to 1 would load
    and then re-save as a different document."""
    net, labels, _ = fresh_setup(4)
    text = save_snapshot(net, labels)
    for version in (99, True, 1.0, "1", None):
        broken = text.replace('"schema_version":1', f'"schema_version":{json.dumps(version)}', 1)
        with pytest.raises(ValueError, match=f"unsupported snapshot schema version {version!r}"):
            load_snapshot(broken)


def _reference_encoding(net, labels):
    """The writer's bytes as json.dumps of the whole document, neurons as a
    list of dicts: the encoder the row-by-row writer replaced, kept here as
    its oracle."""
    units, habs = net.unit_table()
    doc = {
        "schema_version": 1,
        "mode": net.mode,
        "dim": net.dim,
        "rng_seed": net.rng_seed,
        "step_count": net.step_count,
        "prev_bmu": net.prev_bmu,
        "hyper": {**dataclasses.asdict(net.hyper), "context_form": "recursive"},
        "global_context": net.global_context.tolist(),
        "neurons": [
            {"id": i, "weight": unit[0], "contexts": unit[1:], "habituation": hab}
            for i, (unit, hab) in enumerate(zip(units.tolist(), habs.tolist()))
        ],
        "edges": [list(edge) for edge in net.edges],
        "transitions": [list(row) for row in net.transitions],
        "label_counts": [list(item) for item in labels.items()],
        "replay_label_records": labels.replay_records,
        "total_label_records": labels.total_records,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _growing_mid_sequence():
    net, labels, rng = fresh_setup(11)
    train_some(net, labels, rng.normal(size=(70, 3)) * 2)
    replay_episode(net, labels)
    train_some(net, labels, rng.normal(size=(5, 3)) * 2)
    labels.record(0, ("cup", ("red", 1)))
    labels.record(1, 'ü"\\\n')
    return net, labels


def _static_trained():
    net, labels, rng = fresh_setup(12, static=True)
    train_some(net, labels, rng.normal(size=(70, 3)) * 2)
    return net, labels


def _without_contexts():
    rng = np.random.default_rng(13)
    net = init_growing(3, HyperParams(num_contexts=0, alpha=(1.0,), n_max=12), rng.normal(size=(2, 3)))
    labels = LabelAssociations()
    train_some(net, labels, rng.normal(size=(40, 3)) * 2)
    return net, labels


def _without_edges():
    net, labels, _ = fresh_setup(14)
    labels.record(0, "plain")
    return net, labels


@pytest.mark.parametrize(
    "build",
    [_growing_mid_sequence, _static_trained, _without_contexts, _without_edges],
    ids=["growing-mid-sequence-odd-labels", "static", "no-contexts", "no-edges"],
)
def test_writer_bytes_equal_json_dumps_of_the_document(build):
    net, labels = build()
    if build is _growing_mid_sequence:
        assert net.prev_bmu is not None and net.num_neurons > 2
    if build is _without_edges:
        assert net.edges == []
    assert save_snapshot(net, labels) == _reference_encoding(net, labels)


def _traced_peak(call):
    """Peak bytes ``call`` allocates above what was alive before it, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_snapshot_io_allocates_a_few_times_the_document():
    """A 2,500-unit static network, a few hundred steps into training as in
    the cli-batch benchmark, saves and loads in a few times the document's
    length. Measured on Python 3.11 (1.41 MB document): saving
    allocated 2.18x the length, loading 5.03x; the list-of-dicts writer
    allocated 7.03x and the loader that kept the parsed rows alive while the
    network allocated 8.00x."""
    rng = np.random.default_rng(0)
    net = init_static(16, HyperParams(n_max=2500), -1.0, 1.0, 0)
    labels = LabelAssociations()
    train_some(net, labels, rng.uniform(-1.0, 1.0, size=(300, 16)), boundary=20)
    save_peak, text = _traced_peak(lambda: save_snapshot(net, labels))
    load_peak, _ = _traced_peak(lambda: load_snapshot(text))
    assert len(text) > 1_000_000
    assert save_peak < 3.5 * len(text)
    assert load_peak < 6.5 * len(text)


def test_loading_allocates_for_the_neurons_not_the_declared_capacity():
    hyper = HyperParams(n_max=1_000_000)
    net = init_growing(16, hyper, (np.zeros(16), np.ones(16)))
    text = save_snapshot(net, LabelAssociations())
    tracemalloc.start()
    try:
        loaded, _ = load_snapshot(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.hyper.n_max == 1_000_000
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "num_contexts, rows, dim, message",
    [
        (0, True, 10**8, "weights have shape"),
        (0, False, 10**8, "confirmed by no"),
        # 10**12, since a loader that sized the network first would then fail
        # at once instead of exhausting memory
        (1, False, 10**12, r"global_context rows have shape \(1, 3\)"),
    ],
    ids=["rows-disagree", "no-rows", "no-neurons-with-contexts"],
)
def test_unconfirmed_dim_is_rejected_before_allocating(num_contexts, rows, dim, message):
    """A declared dim must match the document's rows before anything is
    sized from it; with no neurons only the global context can confirm it,
    and with no contexts either nothing does."""
    alpha = (1.0, 0.5)[:num_contexts + 1]
    hyper = HyperParams(num_contexts=num_contexts, alpha=alpha, n_max=12)
    net = init_growing(3, hyper, (np.zeros(3), np.ones(3)))
    doc = json.loads(save_snapshot(net, LabelAssociations()))
    doc["dim"] = dim
    if not rows:
        doc.update(neurons=[], edges=[], prev_bmu=None)
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            load_snapshot(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("bad", [-1, 999, True, 1.0], ids=["minus-one", "missing", "bool", "float"])
def test_prev_bmu_naming_no_neuron_is_rejected(bad):
    net, labels, rng = fresh_setup(4)
    train_some(net, labels, rng.normal(size=(20, 3)) * 2)
    doc = json.loads(save_snapshot(net, labels))
    doc["prev_bmu"] = bad
    with pytest.raises(ValueError, match=re.escape(f"snapshot prev_bmu {bad!r} names no neuron")):
        load_snapshot(json.dumps(doc))


def test_more_neurons_than_n_max_is_rejected():
    net, labels, rng = fresh_setup(1)
    train_some(net, labels, rng.normal(size=(120, 3)) * 2)
    assert net.num_neurons > 2
    doc = json.loads(save_snapshot(net, labels))
    doc["hyper"]["n_max"] = 2
    message = f"snapshot is not a valid network: {net.num_neurons} neurons exceed n_max 2"
    with pytest.raises(ValueError, match=message):
        load_snapshot(json.dumps(doc))


@pytest.mark.parametrize(
    "key, edit",
    [
        ("global_context", lambda rows: [[0] + row[1:] for row in rows]),
        ("edges", lambda rows: rows[::-1]),
        ("transitions", lambda rows: rows[::-1]),
        ("label_counts", lambda rows: rows[::-1]),
        ("total_label_records", float),
    ],
    ids=["int-zero-context", "edges-reversed", "transitions-reversed",
         "label-rows-reversed", "float-total"],
)
def test_derived_entry_in_another_form_is_rejected(key, edit):
    """Each entry the saver derives must be the saver's own JSON text: an
    edit that reads back as the same value or the same rows (an int for a
    float, rows in another order) would load, then re-save as other bytes."""
    net, labels, rng = fresh_setup(1)
    train_some(net, labels, rng.normal(size=(120, 3)) * 2)
    net.reset_context()  # a zero context, so an int 0 equals its first entry
    doc = json.loads(save_snapshot(net, labels))
    saved = doc[key]
    doc[key] = edit(saved)
    assert json.dumps(doc[key]) != json.dumps(saved)
    if key in ("edges", "transitions", "label_counts"):  # the same rows, reordered
        assert len({row[0] for row in saved}) > 1 and sorted(doc[key]) == sorted(saved)
    else:  # the same numbers: 0 == 0.0
        assert doc[key] == saved
    with pytest.raises(ValueError, match=f"^snapshot {key} is not what the saver derives"):
        load_snapshot(json.dumps(doc))


# -- malformed documents ---------------------------------------------------------

def _trained_snapshot(seed):
    net, labels, rng = fresh_setup(seed)
    train_some(net, labels, rng.normal(size=(40, 3)) * 2)
    replay_episode(net, labels)
    return save_snapshot(net, labels)


def _mid_sequence_snapshot(seed):
    net, labels, rng = fresh_setup(seed)
    train_some(net, labels, rng.normal(size=(40, 3)) * 2)
    assert net.prev_bmu is not None
    return save_snapshot(net, labels)


# every rule row and every fuzz case edits a fresh parse of one of these small
# trained snapshots: one at a sequence boundary (prev_bmu null, a zero
# context; 10 neurons with edges, transitions and label rows), one mid-sequence
_FUZZ_TEXTS = (_trained_snapshot(9), _mid_sequence_snapshot(9))


def _set(path, value):
    """Edit that sets doc[path[0]]...[path[-1]] = value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _not_derived(key):
    return f"^snapshot {key} is not what the saver derives from the model$"


_MALFORMED = [
    # every JSON object holds exactly the keys the saver writes
    pytest.param(_set(["comment"], "x"), r"^snapshot has unknown keys \['comment'\]$",
                 id="unknown-top-level-key"),
    pytest.param(_set(["neurons", 1, "label"], "x"),
                 r"^snapshot neuron 1 has unknown keys \['label'\]$", id="unknown-neuron-key"),
    pytest.param(_set(["hyper", "gamma"], 0.5), r"^snapshot hyper has unknown keys \['gamma'\]$",
                 id="unknown-hyper-key"),
    pytest.param(lambda doc: doc["hyper"].pop("context_form"),
                 "^snapshot has no 'context_form' entry$", id="no-context-form"),
    pytest.param(_set(["neurons", 1, "id"], True), "^non-dense neuron ids: expected 1, got True$",
                 id="bool-neuron-id"),
    # cells are numbers of the declared shape; a dim that no row confirms is
    # test_unconfirmed_dim_is_rejected_before_allocating's
    pytest.param(_set(["neurons", 1, "weight"], [1.0, 2.0]),
                 r"^snapshot weights have ragged rows, expected shape \(10, 3\)$",
                 id="short-weight"),
    pytest.param(_set(["neurons", 1, "contexts"], [[0.0] * 3]),
                 r"^snapshot contexts have ragged rows, expected shape \(10, 2, 3\)$",
                 id="missing-context-row"),
    pytest.param(_set(["neurons", 1, "habituation"], "0.5"),
                 r"^snapshot habituations are not numbers of shape \(10,\)$",
                 id="string-habituation"),
    pytest.param(_set(["neurons", 1, "weight", 0], "0.5"),
                 r"^snapshot weights are not numbers of shape \(10, 3\)$", id="string-weight-cell"),
    pytest.param(_set(["hyper", "context_form"], "literal"),
                 "^snapshot hyper 'context_form' must be 'recursive', got 'literal'$",
                 id="context-form-literal"),
    pytest.param(_set(["hyper", "kappa"], "fast"),
                 "^snapshot hyper is malformed: kappa must be a finite real number, got 'fast'$",
                 id="bad-hyper-value"),
    # every derived entry is the saver's JSON text for the loaded model: an
    # edit that reads back as the same value or the same rows (an int for a
    # float, rows in another order) would load, then re-save as other bytes
    *[pytest.param(_set(["global_context", 0, 0], value), _not_derived("global_context"), id=name)
      for name, value in [("infinite-context", float("inf")), ("context-at-sequence-start", 1.0),
                          ("negative-zero-context", -0.0), ("false-context", False)]],
    pytest.param(_set(["prev_bmu"], 0), _not_derived("global_context"),
                 id="zero-context-after-a-winner"),
    pytest.param(lambda doc: doc["edges"].append(doc["edges"][0][::-1]), _not_derived("edges"),
                 id="edge-both-ways"),
    pytest.param(lambda doc: doc["edges"].append(doc["edges"][0]), _not_derived("edges"),
                 id="edge-twice"),
    pytest.param(lambda doc: doc["edges"][0].reverse(), _not_derived("edges"),
                 id="edge-with-i-above-j"),
    pytest.param(lambda doc: doc.update(total_label_records=doc["total_label_records"] + 1),
                 _not_derived("total_label_records"), id="total-label-records-off-by-one"),
    # rows name neurons the network has
    pytest.param(lambda doc: doc["edges"].append([0, 999]),
                 r"^snapshot edges name a neuron that does not exist \(no neuron with id 999\)$",
                 id="edge-to-missing-neuron"),
    pytest.param(lambda doc: doc["label_counts"].append([999, "x", 1]),
                 r"^snapshot label_counts name a neuron that does not exist: \[999, 'x', 1\]$",
                 id="label-row-for-missing-neuron"),
    # the network's check_invariants()
    pytest.param(_set(["neurons", 1, "habituation"], 0.04),
                 "^snapshot is not a valid network: habituation below the floor 1 - 1/kappa$",
                 id="habituation-below-floor"),
]


@pytest.mark.parametrize("edit, message", _MALFORMED)
def test_snapshot_breaking_a_loader_rule_is_rejected(edit, message):
    """One row for each rule the loader owns that no test above states. The
    rules of ``Network``, ``HyperParams`` and the label table are tested in
    their own modules."""
    doc = json.loads(_FUZZ_TEXTS[0])
    edit(doc)
    with pytest.raises(ValueError, match=message):
        load_snapshot(json.dumps(doc))


# -- fuzzing ---------------------------------------------------------------------

# the loader checks every declared size against the rows it describes
# before allocating, so integers far out of range are safe to fuzz; integral
# floats stand in for ints written as 2.0
_SMALL_INTS = st.integers(-3, 40)
_INTS = _SMALL_INTS | st.sampled_from([10**6, 10**12, 10**400, -(10**12)])
_SCALARS = (
    st.none() | st.booleans() | _INTS | _SMALL_INTS.map(float) | st.floats()
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
    doc = json.loads(data.draw(st.sampled_from(_FUZZ_TEXTS)))
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
        loaded = load_snapshot(json.dumps(doc))
    except ValueError:
        return
    loaded[0].check_invariants()
    text = save_snapshot(*loaded)
    assert save_snapshot(*load_snapshot(text)) == text
