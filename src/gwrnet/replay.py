"""Temporal synapses and trajectory replay.

Directed transition counts between consecutively firing neurons are the raw
material for replay: walking the most-frequent-predecessor chain from a
neuron reconstructs a short trajectory of stored weight vectors, which is
then re-presented to the network as pseudo-input. Replay consolidates what
the network already knows; it never grows it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labeling import LabelAssociations
from .model import Network


class TemporalSynapses:
    """Directed transition counts P(i, j): neuron i fired right before j.

    ``rows`` restores counts from (prev_id, curr_id, count) triples of ints as
    :meth:`items` yields them; ids are at least 0 and every count at least 1.
    """

    def __init__(self, rows=()):
        # keyed by target so predecessor lookups, the only hot query, are O(1)
        self._pred: dict[int, dict[int, int]] = {}
        for prev_id, curr_id, count in rows:
            if not (type(prev_id) is type(curr_id) is type(count) is int
                    and prev_id >= 0 and curr_id >= 0):
                raise ValueError(
                    f"transition {(prev_id, curr_id, count)!r} needs int ids >= 0 and an int count"
                )
            row = self._pred.setdefault(curr_id, {})
            if prev_id in row:
                raise ValueError(f"transition ({prev_id}, {curr_id}) is listed twice")
            if not count >= 1:
                raise ValueError(f"transition ({prev_id}, {curr_id}) has count {count!r}, below 1")
            row[prev_id] = count

    def record(self, prev_id: int, curr_id: int) -> None:
        row = self._pred.setdefault(curr_id, {})
        row[prev_id] = row.get(prev_id, 0) + 1

    def count(self, prev_id: int, curr_id: int) -> int:
        return self._pred.get(curr_id, {}).get(prev_id, 0)

    def predecessor_counts(self, curr_id: int) -> dict[int, int]:
        return dict(self._pred.get(curr_id, {}))

    def total(self) -> int:
        return sum(sum(row.values()) for row in self._pred.values())

    def items(self):
        """Iterate (prev_id, curr_id, count) sorted by curr_id, then prev_id;
        snapshot bytes depend on this order."""
        for curr_id in sorted(self._pred):
            row = self._pred[curr_id]
            for prev_id in sorted(row):
                yield prev_id, curr_id, row[prev_id]


@dataclass
class Rnat:
    """Reactivated trajectory: neuron ids running backward in time from the
    source ``ids[0]``. Replay presents each id's weight and label as one
    frozen copy per episode holds them."""

    ids: list[int]


def generate_rnat(network: Network, synapses: TemporalSynapses, source_id: int) -> Rnat:
    """Walk the most-frequent-predecessor chain from ``source_id``.

    Produces up to num_contexts + 2 elements (source plus num_contexts + 1
    hops). Each hop picks the neuron with the highest transition count into
    the previous element, excluding that element itself; ties resolve to the
    smallest id, and the walk truncates when no predecessor was ever seen.
    An id on the chain that names no neuron of ``network`` raises KeyError.
    """
    ids = [source_id]
    for _ in range(network.hyper.num_contexts + 1):
        tail = ids[-1]
        counts = synapses.predecessor_counts(tail)
        best = max(sorted(i for i in counts if i != tail), key=counts.get, default=None)
        if best is None:
            break
        ids.append(best)
    for neuron_id in ids:
        if not network.has_neuron(neuron_id):
            raise KeyError(f"no neuron with id {neuron_id!r}")
    return Rnat(ids)


@dataclass
class ReplayReport:
    trajectories: int
    steps_applied: int


def replay_episode(
    network: Network,
    synapses: TemporalSynapses,
    label_counts: LabelAssociations,
) -> ReplayReport:
    """Generate one trajectory per neuron, then re-present them all.

    Everything replay presents is frozen before the first replayed step: the
    trajectories, over the transition counts as they are; one copy of the
    unit table's weight column; and one readout, each neuron's predicted
    label, the rule evaluation uses. Each trajectory is then replayed oldest
    element first, as the frozen weight and label of every id on its chain,
    through the consolidation dynamics (no insertion, no transition
    recording, replay-attributed label credit). Single-element trajectories
    carry no temporal information and are skipped. The context is reset
    around every trajectory so replayed sequences never blend with real input
    or each other.
    """
    rnats = [generate_rnat(network, synapses, neuron_id) for neuron_id in network.neuron_ids]
    weights = network.unit_table()[0][:, 0].copy()
    readout = [label_counts.predict(i) for i in network.neuron_ids]
    steps = 0
    for rnat in rnats:
        if len(rnat.ids) < 2:
            continue
        network.reset_context()
        for neuron_id in reversed(rnat.ids):
            network.replay_step(weights[neuron_id], readout[neuron_id], label_counts)
            steps += 1
    network.reset_context()
    return ReplayReport(trajectories=len(rnats), steps_applied=steps)
