"""Transition counting and trajectory replay."""

from collections import Counter

import numpy as np
import pytest

from gwrnet import replay
from gwrnet.labeling import LabelAssociations
from gwrnet.model import GROWING, HyperParams, Network, init_growing
from gwrnet.replay import generate_rnat, replay_episode


def make_net(num_neurons, dim=2, num_contexts=0, seed=0, transitions=()):
    alpha = tuple([1.0] + [0.1] * num_contexts)
    hyper = HyperParams(num_contexts=num_contexts, alpha=alpha, n_max=max(num_neurons, 2))
    rng = np.random.default_rng(seed)
    units = np.empty((num_neurons, num_contexts + 1, dim))
    for unit in units:
        unit[0] = rng.normal(size=dim)
        unit[1:] = rng.normal(size=(num_contexts, dim))
    return Network(hyper, GROWING, units, transitions=transitions)


def random_rows(rng, n, draws):
    """Transition rows tallying ``draws`` random (prev, curr) pairs over n ids."""
    counts = Counter(tuple(int(i) for i in rng.integers(0, n, size=2)) for _ in range(draws))
    return [(i, j, c) for (i, j), c in counts.items()]


def brute_force_walk(network, source, hops):
    """Independent predecessor-argmax walk over the raw count rows."""
    pairs = {(i, j): c for i, j, c in network.transitions}
    ids = [source]
    for _ in range(hops):
        tail = ids[-1]
        best, best_count = None, 0
        for n in sorted(network.neuron_ids):
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


def two_unit_net():
    """Neurons at (0, 0) and (5, 5) without context: a frame equal to a
    weight row wins, moves nothing and inserts nothing."""
    units = np.zeros((2, 1, 2))
    units[1, 0] = 5.0
    return Network(HyperParams(num_contexts=0, alpha=(1.0,), n_max=2), GROWING, units)


def step_winners(net, winners):
    for winner in winners:
        assert net.step(net.unit_table()[0][winner, 0].copy()).bmu_id == winner


def test_record_increments_by_one():
    net = two_unit_net()
    step_winners(net, [0])
    assert net.predecessor_counts(1) == {} and net.transitions == []
    step_winners(net, [1])
    assert net.predecessor_counts(1) == {0: 1}


def test_record_is_additive():
    net = two_unit_net()
    step_winners(net, [0, 1, 0, 1])
    assert net.transitions == [(1, 0, 1), (0, 1, 2)]
    assert sum(count for _, _, count in net.transitions) == 3


def test_record_is_directed():
    net = two_unit_net()
    step_winners(net, [0, 1])
    assert net.predecessor_counts(0) == {}


def test_self_transitions_are_counted():
    net = two_unit_net()
    step_winners(net, [0, 0])
    assert net.transitions == [(0, 0, 1)]


def test_predecessor_counts_are_a_copy_and_check_the_id():
    net = make_net(3, transitions=[(0, 1, 2)])
    net.predecessor_counts(1)[2] = 9
    assert net.transitions == [(0, 1, 2)]
    for bad in (3, -1, True, 1.0):
        with pytest.raises(KeyError, match=f"no neuron with id {bad!r}"):
            net.predecessor_counts(bad)


def test_restored_transitions_are_listed_by_target_then_source():
    net = make_net(3, transitions=[(2, 1, 3), (0, 1, 5), (1, 0, 1), (2, 2, 4)])
    assert net.transitions == [(1, 0, 1), (0, 1, 5), (2, 1, 3), (2, 2, 4)]


def test_restored_transition_given_twice_is_rejected():
    with pytest.raises(ValueError, match=r"transition \(0, 1\) is listed twice"):
        make_net(3, transitions=[(0, 1, 1), (0, 1, 5)])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0, 1, 0)], r"transition \(0, 1, 0\) needs an int count of at least 1"),
        ([(0, 1, -3)], r"transition \(0, 1, -3\) needs an int count of at least 1"),
        ([(0, 1, 1.5)], r"transition \(0, 1, 1.5\) needs an int count of at least 1"),
        ([(0, 1, True)], r"transition \(0, 1, True\) needs an int count of at least 1"),
        ([(-1, 1, 1)], r"transition \(-1, 1, 1\) names a neuron that does not exist"),
        ([(0, 1.0, 1)], r"transition \(0, 1.0, 1\) names a neuron that does not exist"),
        ([(False, 1, 1)], r"transition \(False, 1, 1\) names a neuron that does not exist"),
    ],
    ids=["0", "-3", "float-count", "bool-count", "negative-id", "float-id", "bool-id"],
)
def test_restored_transition_count_below_one_is_rejected(rows, message):
    """The network states the row rules, so a library caller cannot build one
    that saves but does not load."""
    with pytest.raises(ValueError, match=message):
        make_net(3, transitions=rows)


def test_rnat_rejects_a_predecessor_the_network_lacks():
    """A chain through a neuron the network does not have cannot be built:
    the constructor rejects the transition naming it."""
    with pytest.raises(ValueError, match=r"transition \(7, 1, 1\) names a neuron"):
        make_net(3, transitions=[(7, 1, 1)])


# -- trajectory generation ---------------------------------------------------------


def test_rnat_picks_most_frequent_predecessor():
    net = make_net(3, transitions=[(0, 1, 5), (2, 1, 3)])
    rnat = generate_rnat(net, 1)
    assert rnat.ids == [1, 0]


def test_rnat_truncates_without_evidence():
    net = make_net(3)
    rnat = generate_rnat(net, 1)
    assert rnat.ids == [1]


def test_rnat_follows_chain_to_full_depth():
    net = make_net(4, num_contexts=2, transitions=[(3, 2, 9), (2, 1, 9), (1, 0, 9)])
    rnat = generate_rnat(net, 0)
    assert rnat.ids == [0, 1, 2, 3]


def test_rnat_breaks_ties_by_smallest_id():
    net = make_net(4, transitions=[(3, 1, 1), (2, 1, 1)])
    rnat = generate_rnat(net, 1)
    assert rnat.ids == [1, 2]


def test_rnat_skips_immediate_predecessor_self_loop():
    net = make_net(3, transitions=[(1, 1, 100), (0, 1, 1)])
    rnat = generate_rnat(net, 1)
    assert rnat.ids == [1, 0]


def test_rnat_unknown_source():
    net = make_net(2)
    with pytest.raises(KeyError):
        generate_rnat(net, 5)


def test_rnat_is_pure():
    rows = random_rows(np.random.default_rng(2), 5, 60)
    net = make_net(5, num_contexts=1, seed=3, transitions=rows)
    first = generate_rnat(net, 2)
    second = generate_rnat(net, 2)
    assert first.ids == second.ids


def test_rnat_matches_brute_force_on_hand_built_chain():
    net = make_net(4, num_contexts=2, transitions=[(0, 1, 4), (1, 2, 2), (2, 3, 7), (3, 0, 1)])
    for source in range(4):
        rnat = generate_rnat(net, source)
        assert rnat.ids == brute_force_walk(net, source, hops=3)


# -- replay episodes -----------------------------------------------------------------


def trained_toy_setup(seed=0):
    rng = np.random.default_rng(seed)
    hyper = HyperParams(num_contexts=1, alpha=(0.8, 0.2), n_max=10)
    net = init_growing(2, hyper, (rng.normal(size=2), rng.normal(size=2)))
    labels = LabelAssociations()
    for s in range(6):
        net.reset_context()
        base = rng.normal(size=2) * 2
        for _ in range(10):
            labels.record(net.step(base + 0.1 * rng.normal(size=2)).credited, f"obj{s % 3}")
    net.reset_context()
    return net, labels


def test_replay_generates_one_trajectory_per_neuron(monkeypatch):
    net, labels = trained_toy_setup()
    sources = []

    def counting_rnat(network, source_id):
        sources.append(source_id)
        return generate_rnat(network, source_id)

    monkeypatch.setattr(replay, "generate_rnat", counting_rnat)
    replay_episode(net, labels)
    assert sources == list(net.neuron_ids)


def test_replay_on_empty_transitions_applies_no_steps():
    trained, labels = trained_toy_setup()
    net = Network(trained.hyper, trained.mode, *trained.unit_table())
    report = replay_episode(net, labels)
    assert report.steps_applied == 0


def test_replay_never_changes_neuron_count():
    net, labels = trained_toy_setup()
    before = net.num_neurons
    replay_episode(net, labels)
    assert net.num_neurons == before


def test_replay_leaves_transition_counts_unchanged():
    net, labels = trained_toy_setup()
    before = net.transitions
    replay_episode(net, labels)
    assert net.transitions == before


def test_replay_resets_context_around_trajectories():
    net, labels = trained_toy_setup()
    replay_episode(net, labels)
    assert net.prev_bmu is None
    assert np.all(net.global_context == 0.0)


def test_replay_only_wires_visited_neurons():
    net, labels = trained_toy_setup(seed=4)
    before = set(net.edges)
    visited = set()
    original_step = net.replay_step

    def spy(x):
        out = original_step(x)
        visited.add(out.bmu_id)
        visited.add(out.second_id)
        return out

    net.replay_step = spy
    replay_episode(net, labels)
    for edge in set(net.edges) - before:
        assert set(edge) <= visited


def test_replay_label_records_are_tallied_separately():
    net, labels = trained_toy_setup()
    training_records = labels.total_records
    report = replay_episode(net, labels)
    assert labels.replay_records <= report.steps_applied
    assert labels.total_records - labels.replay_records == training_records


def test_replay_presents_the_frozen_table_and_readout():
    """Every replayed frame is the weight row of a unit-table copy, and every
    credited label the entry of a readout, both taken before the episode,
    along the generate_rnat chains oldest element first. Each replayed step
    credits its own winner, not the neuron it replays, as a replay record; a
    neuron whose readout is None credits nothing, so ``replay_records`` rises
    by exactly the replayed steps whose frozen readout is a label. On this
    seed some neuron is adapted before its own element is replayed, so an
    episode that read the live table would present other weights."""
    net, trained = trained_toy_setup(seed=4)
    units = net.unit_table()[0].copy()
    chains = [generate_rnat(net, i).ids for i in net.neuron_ids]
    order = [i for ids in chains if len(ids) >= 2 for i in reversed(ids)]
    # the first replayed neuron loses its histogram, so its readout is None
    labels = LabelAssociations([row for row in trained.items() if row[0] != order[0]])
    readout = [labels.predict(i) for i in net.neuron_ids]
    before = labels.replay_records
    presented, moved, winners, records = [], [], [], []
    original_step, original_record = net.replay_step, labels.record

    def step_spy(x):
        i = order[len(presented)]
        if not np.array_equal(net.unit_table()[0][i, 0], units[i, 0]):
            moved.append(i)
        presented.append(np.array(x))
        out = original_step(x)
        winners.append(out.bmu_id)
        return out

    def record_spy(neuron_id, label, replay=False):
        records.append((neuron_id, label, replay))
        original_record(neuron_id, label, replay)

    net.replay_step, labels.record = step_spy, record_spy
    report = replay_episode(net, labels)
    assert len(presented) == len(order) == report.steps_applied
    for x, i in zip(presented, order):
        assert np.array_equal(x, units[i, 0])
    assert moved
    replayed = [(w, i) for w, i in zip(winners, order) if readout[i] is not None]
    assert records == [(w, readout[i], True) for w, i in replayed]
    assert labels.replay_records - before == len(replayed) < len(order)
    # on this seed a winner with a label of its own replays another neuron's
    assert any(w != i and readout[w] not in (None, readout[i]) for w, i in replayed)
