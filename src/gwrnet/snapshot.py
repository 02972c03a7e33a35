"""Versioned text snapshots of a trained model.

A snapshot bundles the network, transition counts included, together with the
label histograms into one JSON document. Serialization is canonical (fixed key
order, sorted neuron/edge/count listings, shortest round-trip floats), so
saving, loading and saving again yields identical bytes and a loaded model
continues training exactly like the original. ``global_context`` is written
for readers only: the network derives it from ``prev_bmu``; the loader
rejects any other value, and edge, transition or label rows out of order.

The document is ``json.dumps(doc, separators=(",", ":"))`` of its parse, byte
for byte, but the writer never builds that whole object: it formats each
neuron entry from the network's ``unit_table()`` row and joins the parts once.
The loader fills one unit table from the parsed rows and drops them before
the network allocates its storage.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .labeling import LabelAssociations
from .model import HyperParams, Network

SCHEMA_VERSION = 1
# Schema 1 ends the hyper block with the temporal context rule; the model
# implements only the recursive Gamma-GWR rule, so the entry is fixed.
CONTEXT_FORM = "recursive"
# the keys save_snapshot writes, at the top level and in each neuron entry; a
# document holding any other key is rejected, as is an unknown hyper key
_KEYS = frozenset((
    "schema_version", "mode", "dim", "rng_seed", "step_count", "prev_bmu", "hyper",
    "global_context", "neurons", "edges", "transitions", "label_counts",
    "replay_label_records", "total_label_records",
))
_NEURON_KEYS = frozenset(("id", "weight", "contexts", "habituation"))
_SEPARATORS = (",", ":")


def save_snapshot(network: Network, label_counts: LabelAssociations) -> str:
    units, habs = network.unit_table()
    head = {
        "schema_version": SCHEMA_VERSION,
        "mode": network.mode,
        "dim": network.dim,
        "rng_seed": network.rng_seed,
        "step_count": network.step_count,
        "prev_bmu": network.prev_bmu,
        "hyper": {**asdict(network.hyper), "context_form": CONTEXT_FORM},
        "global_context": network.global_context.tolist(),
    }
    tail = {
        "edges": [list(edge) for edge in network.edges],
        "transitions": [list(row) for row in network.transitions],
        "label_counts": [list(item) for item in label_counts.items()],
        "replay_label_records": label_counts.replay_records,
        "total_label_records": label_counts.total_records,
    }
    # a list of dicts holding every unit as Python floats would be a save's
    # largest transient, so each neuron entry is formatted from its own row,
    # in the bytes json.dumps writes (float.__repr__ for finite floats), and
    # one join assembles head, entries and tail
    parts = [json.dumps(head, separators=_SEPARATORS)[:-1], ',"neurons":[']
    for neuron_id, hab in enumerate(habs.tolist()):
        weight, *contexts = units[neuron_id].tolist()
        parts.append('%s{"id":%d,"weight":%s,"contexts":[%s],"habituation":%r}' % (
            "," if neuron_id else "", neuron_id, _row_text(weight),
            ",".join(map(_row_text, contexts)), hab,
        ))
    parts += ["],", json.dumps(tail, separators=_SEPARATORS)[1:], "\n"]
    return "".join(parts)


def _row_text(values: list) -> str:
    return "[" + ",".join(map(float.__repr__, values)) + "]"


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


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"snapshot {what} are not a JSON list")
    return value


def _rows(rows, width: int, what: str, network: Network | None = None) -> list:
    """A table's JSON rows: lists of ``width`` entries whose first names a
    neuron of ``network``, if given, by :meth:`Network.has_neuron`. These are
    the document's own rules; the table's constructor checks the rest."""
    if not all(isinstance(row, list) and len(row) == width for row in _list(rows, what)):
        raise ValueError(f"snapshot {what} are not rows of {width} entries")
    for row in rows if network is not None else ():
        if not network.has_neuron(row[0]):
            raise ValueError(f"snapshot {what} name a neuron that does not exist: {row!r}")
    return rows


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


def load_snapshot(text: str) -> tuple[Network, LabelAssociations]:
    """Rebuild the model from :func:`save_snapshot` output; malformed
    documents raise ValueError. No rule of ``Network`` or of the label table's
    constructor is restated here: the loader checks the document's format,
    with ``Network.has_neuron`` that every label row names a neuron, and that
    the network reads back the document's derived and ordered entries."""
    doc = json.loads(text, object_hook=_Doc)
    if not isinstance(doc, dict):
        raise ValueError("snapshot is not a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported snapshot schema version {version!r}")
    unknown = sorted(doc.keys() - _KEYS)
    if unknown:
        raise ValueError(f"snapshot has unknown keys {unknown}")
    hyper = _hyper(doc["hyper"])
    dim = _count(doc["dim"], "dim")

    neurons = _list(doc["neurons"], "neurons")
    n, k = len(neurons), hyper.num_contexts
    for expected, entry in enumerate(neurons):
        if not isinstance(entry, dict):
            raise ValueError(f"snapshot neuron {expected} is not a JSON object")
        unknown = entry.keys() - _NEURON_KEYS
        if unknown:
            raise ValueError(f"snapshot neuron {expected} has unknown keys {sorted(unknown)}")
        if type(entry["id"]) is not int or entry["id"] != expected:
            raise ValueError(f"non-dense neuron ids: expected {expected}, got {entry['id']}")
    # every row of dim floats is checked before Network allocates from dim,
    # so a declared dim must be confirmed by the document's own rows
    if n == 0 and k == 0:
        raise ValueError(f"snapshot dim {dim} is confirmed by no weight or context row")
    weights = _floats([e["weight"] for e in neurons], (n, dim), "weights")
    units = np.empty((n, k + 1, dim))
    units[:, 0] = weights
    del weights
    units[:, 1:] = _floats([e["contexts"] for e in neurons], (n, k, dim), "contexts")
    global_context = _floats(doc["global_context"], (k, dim), "global context")
    habs = _floats([e["habituation"] for e in neurons], (n,), "habituations")
    # the parsed rows, one Python float per cell, go before the network
    # allocates its own storage
    del neurons, doc["neurons"]
    # the network states its own rules; the checks above are of the format
    try:
        network = Network(
            hyper, doc["mode"], units, habs, _count(doc["rng_seed"], "rng_seed"),
            transitions=_rows(doc["transitions"], 3, "transitions"),
        )
        try:
            network.prev_bmu = doc["prev_bmu"]
        except KeyError:  # the setter's id rule, Network.has_neuron
            raise ValueError(f"snapshot prev_bmu {doc['prev_bmu']!r} names no neuron") from None
        network.step_count = _count(doc["step_count"], "step_count")
        for i, j in _rows(doc["edges"], 2, "edges"):
            network.connect(i, j)
        network.check_invariants()
    except RuntimeError as exc:
        raise ValueError(f"snapshot is not a valid network: {exc}") from None
    except KeyError as exc:  # connect's id rule, Network.has_neuron
        raise ValueError(f"snapshot edges name a neuron that does not exist ({exc.args[0]})") from None
    # anything else would load, then re-save as different bytes
    if global_context.tobytes() != network.global_context.tobytes():
        raise ValueError("snapshot global_context is not the context derived from prev_bmu")
    if doc["edges"] != [list(edge) for edge in network.edges]:
        raise ValueError("snapshot edges are not sorted distinct (i, j) pairs with i < j")
    if doc["transitions"] != [list(row) for row in network.transitions]:
        raise ValueError("snapshot transitions are not sorted by curr_id, then prev_id")

    label_rows = _rows(doc["label_counts"], 3, "label_counts", network)
    try:
        label_counts = LabelAssociations(label_rows, doc["replay_label_records"])
    except TypeError:
        raise ValueError("snapshot label_counts hold an unhashable label") from None
    # within one neuron the rows keep recording order, which breaks predict ties
    if [row[0] for row in label_rows] != [row[0] for row in label_counts.items()]:
        raise ValueError("snapshot label_counts are not grouped by ascending neuron id")
    total = _count(doc["total_label_records"], "total_label_records")
    if total != label_counts.total_records:
        raise ValueError(f"snapshot total_label_records {total} is not the label count sum")
    return network, label_counts
