"""Command-line front end.

Subcommands: ``gen-data`` writes a synthetic feature CSV, ``run`` executes a
protocol on a feature CSV into a self-describing output directory,
``compare`` aligns the summaries of several finished runs, and
``snapshot-dump`` pretty-prints a saved model. Exit codes: 0 success, 1
runtime failure (running out of memory included), 2 validation failure.

Configuration can come from an INI file (sections [model], [protocol],
[dataset], [output]); command-line flags override file values, and the fully
resolved configuration is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import sys
import typing
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

from .datasets import (
    SyntheticSpec,
    generate_synthetic,
    load_features,
    write_features,
)
from .model import HyperParams
from .protocols import (
    ProtocolSpec,
    run_protocol,
    summarize,
    write_metrics_csv,
    write_timing_csv,
)
from .snapshot import load_snapshot


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parser_for(annotation):
    """Text parser for a field type; tuples are comma-separated items."""
    if annotation is bool:
        return _parse_bool
    if typing.get_origin(annotation) is tuple:
        item = typing.get_args(annotation)[0]

        def comma_separated(raw: str) -> tuple:
            return tuple(item(v) for v in raw.split(",") if v.strip())

        return comma_separated
    return annotation


def _keys_of(cls, skip=()) -> dict:
    """Config key -> text parser for each scalar field of a spec dataclass,
    in declaration order; nested specs are not keys."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _parser_for(hints[f.name])
        for f in fields(cls)
        if f.name not in skip and not is_dataclass(hints[f.name])
    }


_PROTOCOL_KEYS = _keys_of(ProtocolSpec)
# the protocol sets the network capacity, so the model section leaves it out
_HYPER_KEYS = _keys_of(HyperParams, skip=_PROTOCOL_KEYS)
_SYNTHETIC_KEYS = _keys_of(SyntheticSpec)
_SECTIONS = {
    "model": _HYPER_KEYS,
    "protocol": _PROTOCOL_KEYS,
    "dataset": {"path": str},
    "output": {"dir": str, "snapshot": _parse_bool, "parallel_trials": int},
}
# `run` flags not spelled as the key with dashes
_FLAG_NAMES = {
    "n_max": "--nmax",
    "num_contexts": "--contexts",
    "kind": "--protocol",
    "path": "--data",
    "dir": "--out",
}
_GEN_FLAG_NAMES = {"frames_per_seq": "--frames"}


def _load_config(path: str) -> dict[str, dict]:
    # values are literal: a '%' in a path is a character, not interpolation;
    # no section header can name "", so [DEFAULT] is an ordinary section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ValueError(f"config file not found: {path}")
    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        known = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            try:
                values[section][key] = known[key](raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {section}.{key}: {exc}") from None
    return values


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _echo_config(path: Path, sections: dict[str, dict]) -> None:
    lines = []
    for name, section in sections.items():
        lines.append(f"[{name}]")
        for key in sorted(section):
            lines.append(f"{key} = {_format_value(section[key])}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


# -- subcommands --------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(**{key: getattr(args, key) for key in _SYNTHETIC_KEYS})
    dataset = generate_synthetic(spec, args.seed)
    write_features(dataset, args.out)
    print(
        f"wrote {dataset.num_frames} frames in {len(dataset.sequences)} sequences "
        f"({len(dataset.categories)} categories, {len(dataset.instances)} instances, "
        f"{len(dataset.sessions)} sessions, dim {dataset.dim}) to {args.out}"
    )
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args.config) if args.config else {s: {} for s in _SECTIONS}

    # a flag that is set overrides the file's value
    flags = vars(args)
    hyper_cfg, proto_cfg, data_cfg, out_cfg = (
        {**config[name], **{k: flags[k] for k in keys if flags[k] is not None}}
        for name, keys in _SECTIONS.items()
    )

    data_path = data_cfg.get("path")
    if data_path is None:
        raise ValueError(
            "a feature CSV is required (--data or [dataset] path); "
            "`gwrnet gen-data` writes a synthetic one"
        )
    out_dir = out_cfg.get("dir")
    if not out_dir:
        raise ValueError("an output directory is required (--out or [output] dir)")
    workers = out_cfg.get("parallel_trials", 1)
    if workers < 1:
        raise ValueError(f"parallel_trials must be at least 1, got {workers}")
    with_snapshots = out_cfg.get("snapshot", False)

    spec = ProtocolSpec(**proto_cfg, hyper=HyperParams(**hyper_cfg))

    if not Path(data_path).is_file():
        raise ValueError(f"dataset file not found: {data_path}")
    try:
        dataset = load_features(data_path)
    except ValueError as exc:
        raise ValueError(f"{data_path}: {exc}") from None
    out_path = Path(out_dir)
    # mkdir would fail only after every trial had run
    if any(p.exists() and not p.is_dir() for p in (out_path, *out_path.parents)):
        raise ValueError(f"output directory {out_dir} names a file or lies under one")
    if (out_path / "metrics.csv").exists() and not args.force:
        raise ValueError(
            f"{out_dir} already holds a completed run (use --force to overwrite)"
        )

    # the directory is created only once the run has succeeded, so an input
    # that fails inside a trial leaves nothing behind
    result = run_protocol(spec, dataset, workers=workers, with_snapshots=with_snapshots)

    out_path.mkdir(parents=True, exist_ok=True)
    # a forced rerun replaces every snapshot of the run it overwrites
    snap_dir = out_path / "snapshots"
    for stale in snap_dir.glob("trial_*.json"):
        stale.unlink()
    with contextlib.suppress(OSError):
        snap_dir.rmdir()  # only succeeds once it is empty
    write_metrics_csv(result.records, out_path / "metrics.csv")
    write_timing_csv(result.records, out_path / "timing.csv")
    # echoed in declaration order whether a value came from a flag, the
    # config file or a default, so a rerun from config.resolved.ini
    # reproduces summary.json byte for byte
    echo_sections = {
        "model": {k: getattr(spec.hyper, k) for k in _HYPER_KEYS},
        "protocol": {k: getattr(spec, k) for k in _PROTOCOL_KEYS},
        "dataset": {"path": data_path},
        # the directory itself is not echoed so reruns into different
        # directories produce byte-identical outputs
        "output": {
            "snapshot": with_snapshots,
            "parallel_trials": workers,
        },
    }
    summary = summarize(spec, result.records, config_echo={
        name: {k: _format_value(v) for k, v in section.items()}
        for name, section in echo_sections.items()
    })
    with open(out_path / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    _echo_config(out_path / "config.resolved.ini", echo_sections)
    if with_snapshots:
        snap_dir.mkdir(exist_ok=True)
        for trial, text in result.snapshots.items():
            (snap_dir / f"trial_{trial:03d}.json").write_text(text, encoding="utf-8")

    final = max(r.checkpoint for r in result.records)
    finals = [r.acc_overall for r in result.records if r.checkpoint == final]
    print(
        f"{spec.label}: {len(finals)} trial(s), final overall accuracy "
        f"{sum(finals) / len(finals):.4f} -> {out_dir}"
    )
    return 0


# the config echo entries that fix the frames a run trains and tests on; runs
# that differ in one of them saw different streams, and their accuracies do
# not pair up
_STREAM_KEYS = (("dataset", "path"),) + tuple(
    ("protocol", key) for key in ("seed", "trials", "test_sessions", "kind", "epochs")
)


def _run_summary(run_dir) -> tuple[tuple[int, ...], list[tuple[float, float]], dict]:
    """A finished run's checkpoint grid, its (mean, std) overall accuracy at
    each checkpoint and its echoed stream keys, read from summary.json."""
    path = Path(run_dir) / "summary.json"
    if not path.is_file():
        raise ValueError(f"missing summary.json in {run_dir}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        grid = tuple(doc["checkpoints"])
        if not grid or any(type(cp) is not int for cp in grid):
            raise ValueError("checkpoints are not a nonempty list of integers")
        cells = [doc["by_checkpoint"][str(cp)]["acc_overall"] for cp in grid]
        stats = [(cell["mean"], cell["std"]) for cell in cells]
        if any(type(v) is not float for pair in stats for v in pair):
            raise ValueError("acc_overall mean and std are not floats")
        stream = {key: doc["config"][section][key] for section, key in _STREAM_KEYS}
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"malformed summary.json in {run_dir}: {exc!r}") from None
    return grid, stats, stream


def _cmd_compare(args) -> int:
    names = args.run_dirs
    grids, runs, streams = zip(*(_run_summary(run_dir) for run_dir in names))
    if len(set(grids)) != 1:
        detail = "; ".join(f"{d}: {list(g)}" for d, g in zip(names, grids))
        raise ValueError(f"incompatible checkpoint grids: {detail}")
    differing = [key for _, key in _STREAM_KEYS if any(s[key] != streams[0][key] for s in streams)]
    if differing:
        detail = "; ".join(
            f"{key} (" + ", ".join(f"{d}: {s[key]}" for d, s in zip(names, streams)) + ")"
            for key in differing
        )
        raise ValueError(f"runs saw different streams: they differ in {detail}")
    # one row per checkpoint: the checkpoint, then each run's (mean, std)
    table = [(cp, [run[i] for run in runs]) for i, cp in enumerate(grids[0])]

    header = ["checkpoint"] + names
    rows = [[str(cp)] + [f"{m:.4f}+-{s:.4f}" for m, s in stats] for cp, stats in table]
    widths = [max(len(header[i]), max(len(r[i]) for r in rows)) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))

    final, final_stats = table[-1]
    base = final_stats[0][0]
    deltas = [mean - base for mean, _ in final_stats]
    print(f"final checkpoint {final} deltas vs {names[0]}:")
    for name, (mean, _), delta in zip(names, final_stats, deltas):
        print(f"  {name}: {mean:.4f} ({delta:+.4f})")

    # final_delta fills each run's _mean column and leaves its _std cell empty
    lines = [["checkpoint"] + [f"{n}_{stat}" for n in names for stat in ("mean", "std")]]
    lines += [[str(cp)] + [repr(v) for pair in stats for v in pair] for cp, stats in table]
    lines.append(["final_delta"] + [cell for d in deltas for cell in (repr(d), "")])
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(",".join(line) + "\n" for line in lines)
    return 0


def _cmd_snapshot_dump(args) -> int:
    path = Path(args.snapshot_path)
    if not path.is_file():
        raise ValueError(f"snapshot file not found: {path}")
    network, label_counts = load_snapshot(path.read_text(encoding="utf-8"))
    print(f"snapshot {path}")
    print(f"  mode={network.mode} dim={network.dim} steps={network.step_count}")
    print(f"  neurons={network.num_neurons} edges={len(network.edges)}")
    print(f"  prev_bmu={network.prev_bmu}")
    print("  hyper: " + " ".join(
        f"{k}={list(v) if isinstance(v, tuple) else v}"
        for k, v in asdict(network.hyper).items()
    ))
    print(f"  transitions recorded: {sum(count for _, _, count in network.transitions)}")
    print(
        f"  label records: {label_counts.total_records} "
        f"(replay-attributed: {label_counts.replay_records})"
    )
    labeled = sum(1 for i in network.neuron_ids if label_counts.predict(i) is not None)
    print(f"  labeled neurons: {labeled}/{network.num_neurons}")
    if args.neurons:
        for neuron_id, hab in enumerate(network.unit_table()[1].tolist()):
            print(
                f"  neuron {neuron_id}: h={hab:.4f} "
                f"label={label_counts.predict(neuron_id)!r} "
                f"neighbors={network.neighbors(neuron_id)}"
            )
    return 0


# -- parser -------------------------------------------------------------------


def _add_field_flags(parser, defaults, keys: dict, renamed: dict) -> None:
    """One flag per config key; without ``defaults`` an unset flag stays None
    so config-file values and dataclass defaults show through."""
    for key, parse in keys.items():
        flag = renamed.get(key, "--" + key.replace("_", "-"))
        default = getattr(defaults, key) if defaults is not None else None
        if parse is _parse_bool:
            parser.add_argument(flag, dest=key, action="store_true", default=default)
        else:
            parser.add_argument(flag, dest=key, type=parse, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwrnet",
        description="Grow-when-required networks: data generation, experiments, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic feature CSV")
    _add_field_flags(gen, SyntheticSpec(), _SYNTHETIC_KEYS, _GEN_FLAG_NAMES)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_data)

    run = sub.add_parser("run", help="execute a training protocol")
    run.add_argument("--config", help="INI configuration file")
    for keys in _SECTIONS.values():
        _add_field_flags(run, None, keys, _FLAG_NAMES)
    run.add_argument("--force", action="store_true")
    run.set_defaults(func=_cmd_run)

    cmp_parser = sub.add_parser("compare", help="align finished run directories")
    cmp_parser.add_argument("run_dirs", nargs="+")
    cmp_parser.add_argument("--out", default="comparison.csv")
    cmp_parser.set_defaults(func=_cmd_compare)

    dump = sub.add_parser("snapshot-dump", help="pretty-print a model snapshot")
    dump.add_argument("snapshot_path")
    dump.add_argument("--neurons", action="store_true", help="list every neuron")
    dump.set_defaults(func=_cmd_snapshot_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the size it was refused; Python's is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
