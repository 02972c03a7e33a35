"""Versioned text snapshots of a trained model.

A snapshot bundles the network together with its transition counts and label
histograms into one JSON document. Serialization is canonical (fixed key
order, sorted neuron/edge/count listings, shortest round-trip floats), so
saving, loading and saving again yields identical bytes and a loaded model
continues training exactly like the original.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .labeling import LabelAssociations
from .model import HyperParams, Network
from .replay import TemporalSynapses

SCHEMA_VERSION = 1
# Schema 1 ends the hyper block with the temporal context rule; the model
# implements only the recursive Gamma-GWR rule, so the entry is fixed.
CONTEXT_FORM = "recursive"


def save_snapshot(
    network: Network,
    synapses: TemporalSynapses,
    label_counts: LabelAssociations,
) -> str:
    units, habs = network.unit_table()
    neurons = [
        {"id": neuron_id, "weight": unit[0], "contexts": unit[1:], "habituation": hab}
        for neuron_id, (unit, hab) in enumerate(zip(units.tolist(), habs.tolist()))
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": network.mode,
        "dim": network.dim,
        "rng_seed": network.rng_seed,
        "step_count": network.step_count,
        "prev_bmu": network.prev_bmu,
        "hyper": {**asdict(network.hyper), "context_form": CONTEXT_FORM},
        "global_context": network.global_context.tolist(),
        "neurons": neurons,
        "edges": [list(edge) for edge in network.edges],
        "transitions": [list(item) for item in synapses.items()],
        "label_counts": [list(item) for item in label_counts.items()],
        "replay_label_records": label_counts.replay_records,
        "total_label_records": label_counts.total_records,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


class _Doc(dict):
    """JSON object whose missing keys raise ValueError naming the key."""

    def __missing__(self, key):
        raise ValueError(f"snapshot has no {key!r} entry")


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"snapshot {what} must be a nonnegative integer, got {value!r}")
    return value


def _floats(rows, shape: tuple, what: str) -> np.ndarray:
    """Finite float array of exactly ``shape`` built from nested lists of
    numbers; strings and nulls are not numbers."""
    try:
        values = np.array(rows).astype(float, casting="safe", copy=False)
        if values.size == 0:
            values = values.reshape(shape)
    except (TypeError, ValueError):
        raise ValueError(f"snapshot {what} are not numbers of shape {shape}") from None
    if values.shape != shape:
        raise ValueError(f"snapshot {what} have shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"snapshot {what} hold non-finite values")
    return values


def _table(rows, width: int, id_columns: int, num_neurons: int, what: str) -> np.ndarray:
    """Integer rows of ``width`` columns: ``id_columns`` neuron ids that must
    exist, then counts, which the count tables check."""
    try:
        table = np.array(rows)
    except ValueError:
        raise ValueError(f"snapshot {what} are not rows of {width} integers") from None
    if table.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    if table.ndim != 2 or table.shape[1] != width or table.dtype.kind not in "iu":
        raise ValueError(f"snapshot {what} are not rows of {width} integers")
    ids = table[:, :id_columns]
    if ((ids < 0) | (ids >= num_neurons)).any():
        raise ValueError(f"snapshot {what} name a neuron that does not exist")
    return table


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"snapshot {what} are not a JSON list")
    return value


def _hyper(doc) -> HyperParams:
    if not isinstance(doc, dict):
        raise ValueError("snapshot hyper is not a JSON object")
    hyper_doc = dict(doc)
    form = hyper_doc.pop("context_form", None)
    if form != CONTEXT_FORM:
        raise ValueError(f"snapshot hyper 'context_form' must be {CONTEXT_FORM!r}, got {form!r}")
    names = [f.name for f in fields(HyperParams)]
    unknown = sorted(set(hyper_doc) - set(names))
    if unknown:
        raise ValueError(f"snapshot hyper has unknown keys {unknown}")
    for name in names:
        if name not in hyper_doc:
            raise ValueError(f"snapshot has no {name!r} entry")
    try:
        hyper_doc["alpha"] = tuple(hyper_doc["alpha"])
        return HyperParams(**hyper_doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"snapshot hyper is malformed: {exc}") from None


def load_snapshot(text: str) -> tuple[Network, TemporalSynapses, LabelAssociations]:
    """Rebuild the model from :func:`save_snapshot` output; malformed
    documents raise ValueError."""
    doc = json.loads(text, object_hook=_Doc)
    if not isinstance(doc, dict):
        raise ValueError("snapshot is not a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported snapshot schema version {version!r}")
    hyper = _hyper(doc["hyper"])
    dim = _count(doc["dim"], "dim")

    neurons = _list(doc["neurons"], "neurons")
    n, k = len(neurons), hyper.num_contexts
    for expected, entry in enumerate(neurons):
        if not isinstance(entry, dict):
            raise ValueError(f"snapshot neuron {expected} is not a JSON object")
        if entry["id"] != expected:
            raise ValueError(f"non-dense neuron ids: expected {expected}, got {entry['id']}")
    # every row of dim floats is checked before Network allocates from dim,
    # so a declared dim must be confirmed by the document's own rows
    if n == 0 and k == 0:
        raise ValueError(f"snapshot dim {dim} is confirmed by no weight or context row")
    weights = _floats([e["weight"] for e in neurons], (n, dim), "weights")
    contexts = _floats([e["contexts"] for e in neurons], (n, k, dim), "contexts")
    global_context = _floats(doc["global_context"], (k, dim), "global context")
    habs = _floats([e["habituation"] for e in neurons], (n,), "habituations")
    network = Network(dim, hyper, doc["mode"], rng_seed=_count(doc["rng_seed"], "rng_seed"))
    network.prev_bmu = None if doc["prev_bmu"] is None else _count(doc["prev_bmu"], "prev_bmu")
    network.step_count = _count(doc["step_count"], "step_count")
    network.global_context = global_context
    # the network states its own rules; the checks above are of the format
    try:
        network._append_units(np.concatenate([weights[:, None], contexts], axis=1), habs)
        for i, j in _table(doc["edges"], 2, 2, n, "edges").tolist():
            network.connect(i, j)
        network.check_invariants()
    except RuntimeError as exc:
        raise ValueError(f"snapshot is not a valid network: {exc}") from None

    synapses = TemporalSynapses(_table(doc["transitions"], 3, 2, n, "transitions").tolist())
    label_rows = _list(doc["label_counts"], "label_counts")
    if not all(isinstance(row, list) and len(row) == 3 for row in label_rows):
        raise ValueError("snapshot label_counts are not (neuron, label, count) rows")
    _table([[row[0], row[2]] for row in label_rows], 2, 1, n, "label_counts")
    replay_records = _count(doc["replay_label_records"], "replay_label_records")
    try:
        label_counts = LabelAssociations(label_rows, replay_records)
    except TypeError:
        raise ValueError("snapshot label_counts hold an unhashable label") from None
    total = _count(doc["total_label_records"], "total_label_records")
    if total != label_counts.total_records:
        raise ValueError(f"snapshot total_label_records {total} is not the label count sum")
    return network, synapses, label_counts


def save_snapshot_file(path, network, synapses, label_counts) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(save_snapshot(network, synapses, label_counts))


def load_snapshot_file(path) -> tuple[Network, TemporalSynapses, LabelAssociations]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_snapshot(fh.read())
