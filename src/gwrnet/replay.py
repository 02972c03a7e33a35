"""Trajectory replay.

The network's temporal synapses, directed transition counts between
consecutive training winners, are the raw material for replay: walking the
most-frequent-predecessor chain from a neuron reconstructs a short trajectory
of stored weight vectors, which is then re-presented to the network as
pseudo-input. Replay consolidates what the network already knows; it never
grows it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labeling import LabelAssociations
from .model import Network


@dataclass
class Rnat:
    """Reactivated trajectory: neuron ids running backward in time from the
    source ``ids[0]``. Replay presents each id's weight and credits its label
    as one frozen copy per episode holds them."""

    ids: list[int]


def generate_rnat(network: Network, source_id: int) -> Rnat:
    """Walk the most-frequent-predecessor chain from ``source_id``.

    Produces up to num_contexts + 2 elements (source plus num_contexts + 1
    hops). Each hop picks the neuron with the highest transition count into
    the previous element, excluding that element itself; ties resolve to the
    smallest id, and the walk truncates when no predecessor was ever seen.
    A ``source_id`` that names no neuron of ``network`` raises KeyError.
    """
    ids = [source_id]
    for _ in range(network.hyper.num_contexts + 1):
        tail = ids[-1]
        counts = network.predecessor_counts(tail)
        best = max(sorted(i for i in counts if i != tail), key=counts.get, default=None)
        if best is None:
            break
        ids.append(best)
    return Rnat(ids)


@dataclass
class ReplayReport:
    steps_applied: int


def replay_episode(network: Network, label_counts: LabelAssociations) -> ReplayReport:
    """Generate one trajectory per neuron, then re-present them all.

    Everything replay presents is frozen before the first replayed step: the
    trajectories, over the network's transition counts as they are; one copy
    of the unit table's weight column; and one readout, each neuron's
    predicted label, the rule evaluation uses. Each trajectory is then replayed oldest
    element first, as the frozen weight of every id on its chain, through the
    consolidation dynamics (no insertion, no transition recording). Each
    replayed step credits its winner with the replayed id's frozen label, as
    a replay record; an id whose readout is None credits nothing.
    Single-element trajectories carry no temporal information and are
    skipped. The context is reset around every trajectory so replayed
    sequences never blend with real input or each other.
    """
    rnats = [generate_rnat(network, neuron_id) for neuron_id in network.neuron_ids]
    weights = network.unit_table()[0][:, 0].copy()
    readout = [label_counts.predict(i) for i in network.neuron_ids]
    steps = 0
    for rnat in rnats:
        if len(rnat.ids) < 2:
            continue
        network.reset_context()
        for neuron_id in reversed(rnat.ids):
            out = network.replay_step(weights[neuron_id])
            if readout[neuron_id] is not None:
                label_counts.record(out.credited, readout[neuron_id], replay=True)
            steps += 1
    network.reset_context()
    return ReplayReport(steps_applied=steps)
