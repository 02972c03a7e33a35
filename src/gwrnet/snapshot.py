"""Versioned text snapshots of a trained model.

A snapshot bundles the network, transition counts included, together with the
label histograms into one JSON document. Serialization is canonical (fixed key
order, sorted neuron/edge/count listings, shortest round-trip floats), so
saving, loading and saving again yields identical bytes and a loaded model
continues training exactly like the original. The loader adds two rules to
those of ``Network`` and the label table: every JSON object holds exactly the
keys the saver writes, and every entry the saver derives from the model
(``_derived``) is the same JSON text the saver writes for the loaded model.

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
# the keys save_snapshot writes, in its order: at the top level, in each
# neuron entry and in the hyper block
_KEYS = (
    "schema_version", "mode", "dim", "rng_seed", "step_count", "prev_bmu", "hyper",
    "global_context", "neurons", "edges", "transitions", "label_counts",
    "replay_label_records", "total_label_records",
)
_NEURON_KEYS = ("id", "weight", "contexts", "habituation")
_HYPER_KEYS = tuple(f.name for f in fields(HyperParams)) + ("context_form",)
_SEPARATORS = (",", ":")


def _derived(network: Network, label_counts: LabelAssociations) -> dict:
    """The entries that restate the model, as save_snapshot writes them."""
    return {
        "global_context": network.global_context.tolist(),
        "edges": network.edges,
        "transitions": network.transitions,
        "label_counts": list(label_counts.items()),
        "total_label_records": label_counts.total_records,
    }


def save_snapshot(network: Network, label_counts: LabelAssociations) -> str:
    units, habs = network.unit_table()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": network.mode,
        "dim": network.dim,
        "rng_seed": network.rng_seed,
        "step_count": network.step_count,
        "prev_bmu": network.prev_bmu,
        "hyper": {**asdict(network.hyper), "context_form": CONTEXT_FORM},
        "replay_label_records": label_counts.replay_records,
        **_derived(network, label_counts),
    }
    split = _KEYS.index("neurons")
    head = {key: doc[key] for key in _KEYS[:split]}
    tail = {key: doc[key] for key in _KEYS[split + 1:]}
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


def _object(value, keys: tuple, what: str) -> dict:
    """``value`` if it is a JSON object holding exactly ``keys``, the keys the
    saver writes, else ValueError naming the unknown or first missing key."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    if value.keys() != set(keys):
        unknown = sorted(value.keys() - keys)
        if unknown:
            raise ValueError(f"{what} has unknown keys {unknown}")
        missing = next(key for key in keys if key not in value)
        raise ValueError(f"snapshot has no {missing!r} entry")
    return value


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"snapshot {what} must be a nonnegative integer, got {value!r}")
    return value


def _floats(rows, shape: tuple, what: str) -> np.ndarray:
    """Float array of exactly ``shape`` built from nested lists of numbers;
    rows of unequal length or depth are ragged, and strings and nulls are not
    numbers. Whether the values are finite is a rule of ``Network``, or of the
    derived-text check for the global context."""
    try:
        values = np.array(rows)
    except ValueError:  # numpy's inhomogeneous-shape error
        raise ValueError(f"snapshot {what} have ragged rows, expected shape {shape}") from None
    try:
        values = values.astype(float, casting="safe", copy=False)
    except TypeError:
        raise ValueError(f"snapshot {what} are not numbers of shape {shape}") from None
    if values.size == 0 and 0 in shape:  # an empty list has no inner shape
        values = values.reshape(shape)
    if values.shape != shape:
        raise ValueError(f"snapshot {what} have shape {values.shape}, expected {shape}")
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
    form = _object(doc, _HYPER_KEYS, "snapshot hyper")["context_form"]
    if form != CONTEXT_FORM:
        raise ValueError(f"snapshot hyper 'context_form' must be {CONTEXT_FORM!r}, got {form!r}")
    try:  # the fields are every hyper key but the last, context_form
        return HyperParams(**{
            name: tuple(doc[name]) if name == "alpha" else doc[name] for name in _HYPER_KEYS[:-1]
        })
    except (TypeError, ValueError) as exc:
        raise ValueError(f"snapshot hyper is malformed: {exc}") from None


def load_snapshot(text: str) -> tuple[Network, LabelAssociations]:
    """Rebuild the model from :func:`save_snapshot` output; malformed
    documents raise ValueError. Past the schema version, every JSON object
    holds exactly the saver's keys and every entry the saver derives is the
    saver's JSON text for the loaded model. The weight, context and
    global-context rows are read at their declared shapes before anything is
    sized from ``dim``. ``Network.has_neuron`` checks that each label row
    names a neuron; ``Network`` and the label table state the rest, finite
    values included."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("snapshot JSON is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("snapshot is not a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported snapshot schema version {version!r}")
    _object(doc, _KEYS, "snapshot")
    hyper = _hyper(doc["hyper"])
    dim = _count(doc["dim"], "dim")

    neurons = _list(doc["neurons"], "neurons")
    n, k = len(neurons), hyper.num_contexts
    for expected, entry in enumerate(neurons):
        neuron_id = _object(entry, _NEURON_KEYS, f"snapshot neuron {expected}")["id"]
        if type(neuron_id) is not int or neuron_id != expected:
            raise ValueError(f"non-dense neuron ids: expected {expected}, got {neuron_id}")
    # every row of dim floats is read at its declared shape before Network
    # allocates from dim, so a declared dim must be confirmed by the rows
    if n == 0 and k == 0:
        raise ValueError(f"snapshot dim {dim} is confirmed by no weight, context or global_context row")
    weights = _floats([e["weight"] for e in neurons], (n, dim), "weights")
    units = np.empty((n, k + 1, dim))
    units[:, 0] = weights
    del weights
    units[:, 1:] = _floats([e["contexts"] for e in neurons], (n, k, dim), "contexts")
    _floats(doc["global_context"], (k, dim), "global_context rows")
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
    label_rows = _rows(doc["label_counts"], 3, "label_counts", network)
    try:
        label_counts = LabelAssociations(label_rows, doc["replay_label_records"])
    except TypeError:
        raise ValueError("snapshot label_counts hold an unhashable label") from None
    # any other text would load, then re-save as different bytes; text, so a
    # tuple label equals its list, and 0 or false differs from 0.0
    for key, value in _derived(network, label_counts).items():
        if json.dumps(doc[key]) != json.dumps(value):
            raise ValueError(f"snapshot {key} is not what the saver derives from the model")
    return network, label_counts
