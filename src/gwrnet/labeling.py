"""Frequency-based label readout for the unsupervised network.

Each neuron accumulates a histogram of the labels whose inputs it won; the
predicted label of a neuron is the histogram argmax. Labels are discovered
online, nothing has to be declared up front. Histogram increments caused by
trajectory replay are tallied separately so that training-presentation
accounting stays checkable.
"""

from __future__ import annotations

from typing import Hashable, Optional

Label = Hashable


class LabelAssociations:
    """Per-neuron label frequency histograms with a replay-attributed tally.

    ``rows`` restores histograms from (neuron_id, label, count) triples as
    :meth:`items` yields them; list labels (how JSON carries tuples) come back
    as tuples so they stay hashable; every count is at least 1.
    ``replay_records`` of them, at least 0, came from replay.
    """

    def __init__(self, rows=(), replay_records: int = 0):
        self._rows: dict[int, dict[Label, int]] = {}
        for neuron_id, label, count in rows:
            row, label = self._rows.setdefault(neuron_id, {}), _hashable(label)
            if label in row:
                raise ValueError(f"label {label!r} of neuron {neuron_id} is listed twice")
            if not count >= 1:
                raise ValueError(
                    f"label {label!r} of neuron {neuron_id} has count {count!r}, below 1"
                )
            row[label] = count
        if not replay_records >= 0:
            raise ValueError(f"replay_records must be nonnegative, got {replay_records!r}")
        if replay_records > self.total_records:
            raise ValueError(f"{replay_records} replay records exceed {self.total_records} records")
        self.replay_records = replay_records

    @property
    def total_records(self) -> int:
        return sum(sum(row.values()) for row in self._rows.values())

    def record(self, neuron_id: int, label: Label, replay: bool = False) -> None:
        """Count one win of ``label`` for ``neuron_id``."""
        row = self._rows.setdefault(neuron_id, {})
        row[label] = row.get(label, 0) + 1
        if replay:
            self.replay_records += 1

    def row(self, neuron_id: int) -> dict[Label, int]:
        return dict(self._rows.get(neuron_id, {}))

    def predict(self, neuron_id: int) -> Optional[Label]:
        """Most frequent label for a neuron; ties go to the label recorded
        first; None for a neuron that never won a labeled input."""
        row = self._rows.get(neuron_id)
        return max(row, key=row.get) if row else None

    def items(self):
        """Iterate (neuron_id, label, count) in per-row recording order,
        rows ordered by neuron id."""
        for neuron_id in sorted(self._rows):
            for label, count in self._rows[neuron_id].items():
                yield neuron_id, label, count


def _hashable(label):
    return tuple(_hashable(v) for v in label) if isinstance(label, list) else label


def classify_sample(readout: list[Optional[Label]], winner: int) -> Optional[Label]:
    """Predicted label of a test frame's winner: ``readout[winner]``, where
    ``readout`` lists :meth:`LabelAssociations.predict` of every neuron id,
    None for a neuron that never won a labeled input.

    Evaluation builds the readout once per checkpoint and calls this once per
    test frame, so the per-frame predictions and abstentions stay countable
    by a tracer that wraps this function. This function and
    :meth:`Network.match` are the only evaluation entry points the benchmark
    traces; they can fold into ``evaluate`` once its span prediction no
    longer expects them.
    """
    return readout[winner]
