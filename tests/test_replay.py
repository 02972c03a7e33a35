"""Transition counting and trajectory replay."""

import numpy as np
import pytest

from gwrnet.labeling import LabelAssociations
from gwrnet.model import GROWING, HyperParams, Network, init_growing
from gwrnet.replay import TemporalSynapses, generate_rnat, replay_episode


def make_net(num_neurons, dim=2, num_contexts=0, seed=0):
    alpha = tuple([1.0] + [0.1] * num_contexts)
    hyper = HyperParams(num_contexts=num_contexts, alpha=alpha, n_max=max(num_neurons, 2))
    rng = np.random.default_rng(seed)
    units = np.empty((num_neurons, num_contexts + 1, dim))
    for unit in units:
        unit[0] = rng.normal(size=dim)
        unit[1:] = rng.normal(size=(num_contexts, dim))
    return Network(hyper, GROWING, units)


def brute_force_walk(synapses, neuron_ids, source, hops):
    """Independent predecessor-argmax walk over the raw count pairs."""
    pairs = {(i, j): c for i, j, c in synapses.items()}
    ids = [source]
    for _ in range(hops):
        tail = ids[-1]
        best, best_count = None, 0
        for n in sorted(neuron_ids):
            if n == tail:
                continue
            c = pairs.get((n, tail), 0)
            if c > best_count:
                best, best_count = n, c
        if best is None:
            break
        ids.append(best)
    return ids


# -- transition recording --------------------------------------------------------


def test_record_increments_by_one():
    p = TemporalSynapses()
    assert p.count(1, 2) == 0
    p.record(1, 2)
    assert p.count(1, 2) == 1


def test_record_is_additive():
    p = TemporalSynapses()
    p.record(1, 2)
    p.record(1, 2)
    assert p.count(1, 2) == 2
    assert p.total() == 2


def test_restored_transition_given_twice_is_rejected():
    with pytest.raises(ValueError, match=r"transition \(0, 1\) is listed twice"):
        TemporalSynapses([(0, 1, 1), (0, 1, 5)])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0, 1, 0)], r"transition \(0, 1\) has count 0, below 1"),
        ([(0, 1, -3)], r"transition \(0, 1\) has count -3, below 1"),
        ([(0, 1, 1.5)], r"transition \(0, 1, 1.5\) needs int ids >= 0 and an int count"),
        ([(0, 1, True)], r"transition \(0, 1, True\) needs int ids >= 0 and an int count"),
        ([(-1, 1, 1)], r"transition \(-1, 1, 1\) needs int ids >= 0 and an int count"),
        ([(0, 1.0, 1)], r"transition \(0, 1.0, 1\) needs int ids >= 0 and an int count"),
    ],
    ids=["0", "-3", "float-count", "bool-count", "negative-id", "float-id"],
)
def test_restored_transition_count_below_one_is_rejected(rows, message):
    """The table states its own rules, so a library caller cannot build one
    that saves but does not load."""
    with pytest.raises(ValueError, match=message):
        TemporalSynapses(rows)


def test_record_is_directed():
    p = TemporalSynapses()
    p.record(1, 2)
    assert p.count(2, 1) == 0


def test_self_transitions_are_counted():
    p = TemporalSynapses()
    p.record(4, 4)
    assert p.count(4, 4) == 1


# -- trajectory generation ---------------------------------------------------------


def test_rnat_picks_most_frequent_predecessor():
    net = make_net(3)
    p = TemporalSynapses()
    for _ in range(5):
        p.record(0, 1)
    for _ in range(3):
        p.record(2, 1)
    rnat = generate_rnat(net, p, 1)
    assert rnat.ids == [1, 0]


def test_rnat_truncates_without_evidence():
    net = make_net(3)
    rnat = generate_rnat(net, TemporalSynapses(), 1)
    assert rnat.ids == [1]


def test_rnat_follows_chain_to_full_depth():
    net = make_net(4, num_contexts=2)
    p = TemporalSynapses()
    for _ in range(9):
        p.record(3, 2)
        p.record(2, 1)
        p.record(1, 0)
    rnat = generate_rnat(net, p, 0)
    assert rnat.ids == [0, 1, 2, 3]


def test_rnat_breaks_ties_by_smallest_id():
    net = make_net(4)
    p = TemporalSynapses()
    p.record(3, 1)
    p.record(2, 1)
    rnat = generate_rnat(net, p, 1)
    assert rnat.ids == [1, 2]


def test_rnat_skips_immediate_predecessor_self_loop():
    net = make_net(3)
    p = TemporalSynapses()
    for _ in range(100):
        p.record(1, 1)
    p.record(0, 1)
    rnat = generate_rnat(net, p, 1)
    assert rnat.ids == [1, 0]


def test_rnat_unknown_source():
    net = make_net(2)
    with pytest.raises(KeyError):
        generate_rnat(net, TemporalSynapses(), 5)


def test_rnat_rejects_a_predecessor_the_network_lacks():
    """A transition table naming a neuron the network does not have fails
    while the trajectory is built, not mid-episode."""
    net = make_net(3)
    p = TemporalSynapses()
    p.record(7, 1)
    with pytest.raises(KeyError, match="no neuron with id 7"):
        generate_rnat(net, p, 1)


def test_rnat_is_pure():
    net = make_net(5, num_contexts=1, seed=3)
    p = TemporalSynapses()
    rng = np.random.default_rng(2)
    for _ in range(60):
        i, j = rng.integers(0, 5, size=2)
        p.record(int(i), int(j))
    first = generate_rnat(net, p, 2)
    second = generate_rnat(net, p, 2)
    assert first.ids == second.ids


def test_rnat_matches_brute_force_on_hand_built_chain():
    net = make_net(4, num_contexts=2)
    p = TemporalSynapses()
    for count, (i, j) in [(4, (0, 1)), (2, (1, 2)), (7, (2, 3)), (1, (3, 0))]:
        for _ in range(count):
            p.record(i, j)
    for source in range(4):
        rnat = generate_rnat(net, p, source)
        assert rnat.ids == brute_force_walk(p, range(4), source, hops=3)


def test_rnat_matches_brute_force_randomized():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(0, 3))
        net = make_net(n, num_contexts=k, seed=int(rng.integers(1 << 30)))
        p = TemporalSynapses()
        for _ in range(int(rng.integers(0, 40))):
            i, j = rng.integers(0, n, size=2)
            p.record(int(i), int(j))
        source = int(rng.integers(0, n))
        rnat = generate_rnat(net, p, source)
        assert rnat.ids == brute_force_walk(p, range(n), source, hops=k + 1)


# -- replay episodes -----------------------------------------------------------------


def trained_toy_setup(seed=0):
    rng = np.random.default_rng(seed)
    hyper = HyperParams(num_contexts=1, alpha=(0.8, 0.2), n_max=10)
    net = init_growing(2, hyper, (rng.normal(size=2), rng.normal(size=2)))
    synapses = TemporalSynapses()
    labels = LabelAssociations()
    for s in range(6):
        net.reset_context()
        base = rng.normal(size=2) * 2
        for _ in range(10):
            net.step(base + 0.1 * rng.normal(size=2), f"obj{s % 3}", synapses, labels)
    net.reset_context()
    return net, synapses, labels


def test_replay_generates_one_trajectory_per_neuron():
    net, synapses, labels = trained_toy_setup()
    report = replay_episode(net, synapses, labels)
    assert report.trajectories == net.num_neurons


def test_replay_on_empty_transitions_applies_no_steps():
    net, _, labels = trained_toy_setup()
    report = replay_episode(net, TemporalSynapses(), labels)
    assert report.steps_applied == 0


def test_replay_never_changes_neuron_count():
    net, synapses, labels = trained_toy_setup()
    before = net.num_neurons
    replay_episode(net, synapses, labels)
    assert net.num_neurons == before


def test_replay_leaves_transition_counts_unchanged():
    net, synapses, labels = trained_toy_setup()
    before = list(synapses.items())
    replay_episode(net, synapses, labels)
    assert list(synapses.items()) == before


def test_replay_resets_context_around_trajectories():
    net, synapses, labels = trained_toy_setup()
    replay_episode(net, synapses, labels)
    assert net.prev_bmu is None
    assert np.all(net.global_context == 0.0)


def test_replay_only_wires_visited_neurons():
    net, synapses, labels = trained_toy_setup(seed=4)
    before = set(net.edges)
    visited = set()
    original_step = net.replay_step

    def spy(x, label=None, label_counts=None):
        out = original_step(x, label, label_counts)
        visited.add(out.bmu_id)
        visited.add(out.second_id)
        return out

    net.replay_step = spy
    replay_episode(net, synapses, labels)
    for edge in set(net.edges) - before:
        assert set(edge) <= visited


def test_replay_label_records_are_tallied_separately():
    net, synapses, labels = trained_toy_setup()
    training_records = labels.total_records
    report = replay_episode(net, synapses, labels)
    assert labels.replay_records <= report.steps_applied
    assert labels.total_records - labels.replay_records == training_records


def test_replay_presents_the_frozen_table_and_readout():
    """Every replayed (x, label) is the weight row of a unit-table copy and
    the label of a readout, both taken before the episode, along the
    generate_rnat chains oldest element first. On this seed some neuron is
    adapted before its own element is replayed, so an episode that read the
    live table would present other weights."""
    net, synapses, labels = trained_toy_setup(seed=1)
    units = net.unit_table()[0].copy()
    readout = [labels.predict(i) for i in net.neuron_ids]
    chains = [generate_rnat(net, synapses, i).ids for i in net.neuron_ids]
    order = [i for ids in chains if len(ids) >= 2 for i in reversed(ids)]
    presented, moved = [], []
    original_step = net.replay_step

    def spy(x, label=None, label_counts=None):
        i = order[len(presented)]
        if not np.array_equal(net.unit_table()[0][i, 0], units[i, 0]):
            moved.append(i)
        presented.append((np.array(x), label))
        return original_step(x, label, label_counts)

    net.replay_step = spy
    replay_episode(net, synapses, labels)
    assert len(presented) == len(order)
    for (x, label), i in zip(presented, order):
        assert np.array_equal(x, units[i, 0]) and label == readout[i]
    assert moved
