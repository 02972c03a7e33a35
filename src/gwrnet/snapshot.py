"""Versioned text snapshots of a trained model.

A snapshot bundles the network together with its transition counts and label
histograms into one JSON document. Serialization is canonical (fixed key
order, sorted neuron/edge/count listings, shortest round-trip floats), so
saving, loading and saving again yields identical bytes and a loaded model
continues training exactly like the original.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .labeling import LabelAssociations
from .model import HyperParams, Network
from .replay import TemporalSynapses

SCHEMA_VERSION = 1


def save_snapshot(
    network: Network,
    synapses: TemporalSynapses,
    label_counts: LabelAssociations,
) -> str:
    neurons = []
    for neuron_id in network.neuron_ids:
        unit = network.neuron(neuron_id)
        neurons.append(
            {
                "id": neuron_id,
                "weight": unit.weight.tolist(),
                "contexts": unit.contexts.tolist(),
                "habituation": unit.habituation,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": network.mode,
        "dim": network.dim,
        "rng_seed": network.rng_seed,
        "step_count": network.step_count,
        "prev_bmu": network.prev_bmu,
        "hyper": asdict(network.hyper),
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


def load_snapshot(text: str) -> tuple[Network, TemporalSynapses, LabelAssociations]:
    """Rebuild the model from :func:`save_snapshot` output; malformed
    documents raise ValueError."""
    doc = json.loads(text, object_hook=_Doc)
    if not isinstance(doc, dict):
        raise ValueError("snapshot is not a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported snapshot schema version {version!r}")
    hyper_doc = dict(doc["hyper"])
    hyper_doc["alpha"] = tuple(hyper_doc["alpha"])
    hyper = HyperParams(**hyper_doc)
    network = Network(doc["dim"], hyper, doc["mode"], rng_seed=doc["rng_seed"])
    for entry in doc["neurons"]:
        new_id = network._append_neuron(
            np.array(entry["weight"], dtype=float),
            np.array(entry["contexts"], dtype=float),
            float(entry["habituation"]),
        )
        if new_id != entry["id"]:
            raise ValueError(f"non-dense neuron ids: expected {new_id}, got {entry['id']}")
    for i, j in doc["edges"]:
        network.connect(i, j)
    network.prev_bmu = doc["prev_bmu"]
    network.step_count = doc["step_count"]
    network.global_context = doc["global_context"]
    synapses = TemporalSynapses(doc["transitions"])
    label_counts = LabelAssociations(doc["label_counts"])
    label_counts.replay_records = doc["replay_label_records"]
    label_counts.total_records = doc["total_label_records"]
    return network, synapses, label_counts


def save_snapshot_file(path, network, synapses, label_counts) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(save_snapshot(network, synapses, label_counts))


def load_snapshot_file(path) -> tuple[Network, TemporalSynapses, LabelAssociations]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_snapshot(fh.read())
