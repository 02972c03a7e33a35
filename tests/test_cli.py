"""Command-line interface: exit codes, outputs, config resolution."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrnet import cli
from gwrnet.cli import main
from gwrnet.datasets import Dataset, Sequence, SyntheticSpec, generate_synthetic, write_features
from gwrnet.model import HyperParams
from gwrnet.protocols import ProtocolSpec, run_protocol, write_metrics_csv

TINY_GEN = [
    "gen-data",
    "--categories", "3",
    "--instances", "2",
    "--sessions", "4",
    "--dim", "6",
    "--frames", "5",
    "--seed", "5",
]

TINY_RUN = [
    "run",
    "--protocol", "incremental",
    "--mode", "growing",
    "--nmax", "30",
    "--trials", "2",
    "--seed", "3",
    "--test-sessions", "2",
]


def gen_tiny(tmp_path, name="data.csv"):
    path = tmp_path / name
    assert main(TINY_GEN + ["--out", str(path)]) == 0
    return path


def run_tiny(tmp_path, data, out_name, extra=()):
    out = tmp_path / out_name
    code = main(TINY_RUN + ["--data", str(data), "--out", str(out)] + list(extra))
    return code, out


def run_cli_process(args, cwd=None, **env):
    """`python -m gwrnet.cli` in a child process whose environment adds ``env``."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "gwrnet.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_gen_data_writes_expected_rows(tmp_path, capsys):
    path = gen_tiny(tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 3 * 2 * 4 * 5
    assert "120 frames in 24 sequences" in capsys.readouterr().out


def test_gen_data_reruns_identically(tmp_path):
    a = gen_tiny(tmp_path, "a.csv")
    b = gen_tiny(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gen-data", "--seed", "-1", "--out", str(out)]) == 2
    assert "error: seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


# sizes numpy refuses at once (over a hundred TiB); a size it might grant
# lazily would exhaust the machine's memory instead of failing
@pytest.mark.parametrize("command", ["gen-data", "run"])
def test_out_of_memory_exits_1_with_one_line_and_writes_nothing(tmp_path, capsys, command):
    if command == "gen-data":
        out = tmp_path / "huge.csv"
        code = main(["gen-data", "--instances", "1000000", "--sessions", "1000000",
                     "--out", str(out)])
    else:
        data = gen_tiny(tmp_path)
        capsys.readouterr()
        code, out = run_tiny(tmp_path, data, "huge_run",
                             ["--mode", "static", "--nmax", "1000000000000"])
    assert code == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: [^\n]+\n", captured.err)
    assert captured.out == ""
    assert not out.exists()


def test_run_writes_self_describing_outputs(tmp_path):
    data = gen_tiny(tmp_path)
    code, out = run_tiny(tmp_path, data, "run1")
    assert code == 0
    assert (out / "metrics.csv").is_file()
    assert (out / "timing.csv").is_file()
    assert (out / "config.resolved.ini").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["protocol"]["mode"] == "growing"
    assert summary["checkpoints"] == [1, 2, 3]
    echo = (out / "config.resolved.ini").read_text()
    assert "[model]" in echo and "[protocol]" in echo and "seed = 3" in echo


def test_run_snapshot_flag_writes_per_trial_snapshots(tmp_path):
    data = gen_tiny(tmp_path)
    code, out = run_tiny(tmp_path, data, "run_snap", ["--snapshot"])
    assert code == 0
    snaps = sorted((out / "snapshots").iterdir())
    assert [p.name for p in snaps] == ["trial_000.json", "trial_001.json"]


def test_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The float32 screens' products come from BLAS, whose blocking may change
    with the thread count; only the screen's error bound keeps every winner,
    so metrics and snapshots must not move. The static table (800 x 24) is
    above OpenBLAS's single-thread cutoff for a matrix-vector product; the
    incremental growing run with replay scores its checkpoints through the
    lockstep screen."""
    data = tmp_path / "data.csv"
    gen = ["gen-data", "--categories", "3", "--instances", "2", "--sessions", "4",
           "--dim", "8", "--frames", "20", "--seed", "5", "--out", str(data)]
    assert main(gen) == 0
    runs = {
        "batch-static": ["--protocol", "batch", "--mode", "static", "--nmax", "800",
                         "--epochs", "2", "--snapshot"],
        "incremental-growing-replay": ["--protocol", "incremental", "--mode", "growing",
                                       "--replay", "--nmax", "300"],
    }
    outputs = {}
    for threads in ("1", "2"):
        for name, flags in runs.items():
            out = tmp_path / f"{name}_{threads}"
            done = run_cli_process(
                ["run", "--data", str(data), "--trials", "2", "--test-sessions", "2",
                 "--out", str(out)] + flags,
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            )
            assert done.returncode == 0, done.stderr
            files = [out / "metrics.csv"] + sorted(out.glob("snapshots/*"))
            outputs[threads, name] = {p.name: p.read_bytes() for p in files}
    assert len(outputs["1", "batch-static"]) == 3
    for name in runs:
        assert outputs["1", name] == outputs["2", name]


def test_run_is_write_once(tmp_path, capsys):
    data = gen_tiny(tmp_path)
    code, out = run_tiny(tmp_path, data, "run2")
    assert code == 0
    code, _ = run_tiny(tmp_path, data, "run2")
    assert code == 2
    assert "already holds" in capsys.readouterr().err
    code, _ = run_tiny(tmp_path, data, "run2", ["--force"])
    assert code == 0


def _disk_full(records, path):
    """A table writer that runs out of room after its first line."""
    Path(path).write_text("trial\n")
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("first_run", [False, True], ids=["fresh", "forced-over-a-run"])
@pytest.mark.parametrize("writer", ["write_timing_csv", "write_metrics_csv"])
def test_failed_write_leaves_no_completed_run(tmp_path, capsys, monkeypatch, writer, first_run):
    """metrics.csv marks a completed run and is written last, whole or not at
    all: a write that fails exits 1, and a rerun without --force succeeds."""
    data = gen_tiny(tmp_path)
    if first_run:
        assert run_tiny(tmp_path, data, "full")[0] == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, writer, _disk_full)
        code, out = run_tiny(tmp_path, data, "full", ["--force"] if first_run else [])
    assert code == 1
    assert "No space left on device" in capsys.readouterr().err
    assert out.is_dir() and not (out / "metrics.csv").exists()
    assert run_tiny(tmp_path, data, "full")[0] == 0
    assert (out / "metrics.csv").is_file()


@pytest.mark.parametrize("command", ["gen-data", "run"])
def test_closing_line_escapes_what_stdout_cannot_encode(tmp_path, command):
    """The closing line follows the last output, so a path that strict UTF-8
    stdout cannot encode prints escaped and the command still exits 0."""
    args = TINY_GEN if command == "gen-data" else TINY_RUN + ["--data", str(gen_tiny(tmp_path))]
    out = tmp_path / os.fsdecode(b"out_\xe4")
    done = run_cli_process(args + ["--out", out.name], cwd=tmp_path, PYTHONIOENCODING="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(" out_\\udce4\n")
    assert (out / "metrics.csv" if command == "run" else out).is_file()


@pytest.mark.parametrize("command", ["compare", "snapshot-dump"])
def test_report_escapes_what_stdout_cannot_encode(tmp_path, command):
    """The report follows the last output, so a run directory name that an
    ASCII stdout cannot encode prints escaped and the command still exits 0."""
    run = "run_\u00e4"
    assert run_tiny(tmp_path, gen_tiny(tmp_path), run, ["--snapshot"])[0] == 0
    args = [run] if command == "compare" else [f"{run}/snapshots/trial_000.json"]
    done = run_cli_process([command] + args, cwd=tmp_path, PYTHONIOENCODING="ascii")
    assert done.returncode == 0, done.stderr
    assert "run_\\xe4" in done.stdout
    if command == "compare":
        assert "checkpoint,run_\u00e4_mean," in (tmp_path / "comparison.csv").read_text()


@pytest.mark.parametrize(
    "run_name, table_is_dir, code, error",
    [
        ("run", True, 1, "error: [Errno 21] Is a directory: {table!r}\n"),
        (os.fsdecode(b"run_\xe4"), False, 2,
         "error: run directory {run!r} is not UTF-8 text, which {table} names\n"),
    ],
    ids=["out-is-a-directory", "run-name-not-utf8"],
)
def test_compare_that_cannot_write_its_table_prints_nothing(
    tmp_path, capsys, run_name, table_is_dir, code, error
):
    """compare writes its table before it prints: a table it cannot write
    exits with one error line and prints no report."""
    _, run = run_tiny(tmp_path, gen_tiny(tmp_path), run_name)
    table = tmp_path / "table"
    if table_is_dir:
        table.mkdir()
    capsys.readouterr()
    assert main(["compare", str(run), "--out", str(table)]) == code
    captured = capsys.readouterr()
    assert captured.err == error.format(run=str(run), table=str(table))
    assert captured.out == ""
    assert table.is_dir() == table_is_dir


def test_dataset_path_utf8_cannot_encode_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    """config.resolved.ini echoes the dataset path as UTF-8, so a file name
    byte that decodes to a lone surrogate is refused before the run starts."""
    data = gen_tiny(tmp_path).rename(tmp_path / os.fsdecode(b"daten_\xe4.csv"))
    monkeypatch.setattr(cli, "run_protocol", _reach_run)
    code, out = run_tiny(tmp_path, data, "latin1_name")
    assert code == 2
    assert "daten_\\udce4.csv' is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_run_out_naming_a_file_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, under):
    data = gen_tiny(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    monkeypatch.setattr(cli, "run_protocol", _reach_run)
    out = taken / "run" if under else taken
    assert main(TINY_RUN + ["--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: output directory {out} names a file or lies under one" in err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("snapshot", [[], ["--snapshot"]], ids=["plain", "snapshot"])
def test_forced_rerun_leaves_only_its_own_snapshots(tmp_path, snapshot):
    data = gen_tiny(tmp_path)
    code, out = run_tiny(tmp_path, data, "rerun", ["--trials", "3", "--snapshot"])
    assert code == 0
    assert len(list((out / "snapshots").iterdir())) == 3
    code, _ = run_tiny(tmp_path, data, "rerun", ["--trials", "1", "--force"] + snapshot)
    assert code == 0
    snapshots = out / "snapshots"
    if snapshot:
        assert [p.name for p in snapshots.iterdir()] == ["trial_000.json"]
    else:
        assert not snapshots.exists()


def test_trial_error_exits_2_without_outputs(tmp_path, capsys):
    """An error raised inside a trial exits 2 and leaves no run directory.
    Here session 1, the only training session, holds a single frame."""
    data = tmp_path / "data.csv"
    write_features(Dataset([
        Sequence("a", "a0", 1, 0, np.zeros((1, 2))),
        Sequence("a", "a0", 2, 1, np.eye(2)),
    ]), data)
    code, out = run_tiny(tmp_path, data, "failed", ["--trials", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: growing mode needs at least two training frames\n"
    assert not out.exists()


def test_run_reruns_byte_identically(tmp_path):
    """A rerun in a pool of two worker processes writes the same bytes; its
    summary differs only in the worker count it echoes."""
    data = gen_tiny(tmp_path)
    _, out_a = run_tiny(tmp_path, data, "run_a", ["--snapshot"])
    _, out_b = run_tiny(tmp_path, data, "run_b", ["--snapshot", "--parallel-trials", "2"])
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    workers = ('"parallel_trials": "1"', '"parallel_trials": "2"')
    assert (out_a / "summary.json").read_text().replace(*workers) == (
        out_b / "summary.json"
    ).read_text()
    for name in ("trial_000.json", "trial_001.json"):
        assert (out_a / "snapshots" / name).read_bytes() == (
            out_b / "snapshots" / name
        ).read_bytes()


def test_run_with_config_file_and_flag_override(tmp_path):
    data = gen_tiny(tmp_path)
    config = tmp_path / "run.ini"
    config.write_text(
        "[protocol]\n"
        "kind = incremental\n"
        "mode = static\n"
        "n_max = 30\n"
        "trials = 1\n"
        "seed = 3\n"
        "test_sessions = 2\n"
        f"[dataset]\npath = {data}\n"
    )
    out = tmp_path / "run_cfg"
    code = main(["run", "--config", str(config), "--mode", "growing", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["protocol"]["mode"] == "growing"  # flag beats file
    assert summary["protocol"]["trials"] == 1


def test_ini_path_alone_selects_the_feature_file(tmp_path):
    data = gen_tiny(tmp_path)
    _, from_flag = run_tiny(tmp_path, data, "from_flag")
    config = tmp_path / "path_only.ini"
    config.write_text(
        "[protocol]\nkind = incremental\nmode = growing\nn_max = 30\ntrials = 2\n"
        f"seed = 3\ntest_sessions = 2\n[dataset]\npath = {data}\n"
    )
    from_ini = tmp_path / "from_ini"
    assert main(["run", "--config", str(config), "--out", str(from_ini)]) == 0
    assert (from_ini / "metrics.csv").read_bytes() == (from_flag / "metrics.csv").read_bytes()
    assert f"[dataset]\npath = {data}\n\n" in (from_ini / "config.resolved.ini").read_text()


class _RunReached(Exception):
    pass


def _reach_run(*args, **kwargs):
    raise _RunReached


def _exit_code(argv) -> int:
    """main's return code, or argparse's exit code for a flag it rejects."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "ini_dataset, flags, message",
    [
        ("path = {data}\ndim = 6\n", [], "unknown config key 'dim' in [dataset]"),
        ("path = {data}\n", ["--data-seed", "2"], "unrecognized arguments: --data-seed 2"),
        ("categories = 3\ndata_seed = 2\n", ["--data", "{data}"],
         "unknown config key 'categories' in [dataset]"),
        ("", ["--data", "{data}", "--data-seed", "2"], "unrecognized arguments: --data-seed 2"),
    ],
    ids=["ini-path-ini-key", "ini-path-flag-seed", "flag-path-ini-keys", "flag-path-flag-seed"],
)
def test_run_rejects_path_with_synthetic_keys(tmp_path, capsys, ini_dataset, flags, message):
    """The synthetic shape keys and the data seed belong to gen-data alone,
    so `run` rejects them as unknown whether the path is a flag or a key."""
    data = gen_tiny(tmp_path)
    config = tmp_path / "mixed.ini"
    config.write_text("[dataset]\n" + ini_dataset.format(data=data))
    out = tmp_path / "mixed"
    flags = [flag.format(data=data) for flag in flags]
    assert _exit_code(["run", "--config", str(config), "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_without_a_dataset_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_features", _reach_run)
    monkeypatch.setattr(cli, "run_protocol", _reach_run)
    out = tmp_path / "nodata"
    assert main(["run", "--test-sessions", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for name in ("--data", "[dataset] path", "gwrnet gen-data"):
        assert name in err
    assert not out.exists()


def test_gen_data_then_run_reproduces_the_library_run(tmp_path):
    """`gen-data --seed S` then `run --data` is the synthetic recipe: it
    writes the metrics.csv bytes of a library run on generate_synthetic."""
    data = gen_tiny(tmp_path)
    code, out = run_tiny(tmp_path, data, "from_csv", ["--replay"])
    assert code == 0
    shape = SyntheticSpec(categories=3, instances=2, sessions=4, dim=6, frames_per_seq=5)
    spec = ProtocolSpec(mode="growing", replay=True, n_max=30, trials=2, seed=3,
                        test_sessions=(2,))
    expected = tmp_path / "library.csv"
    write_metrics_csv(run_protocol(spec, generate_synthetic(shape, 5)).records, expected)
    assert (out / "metrics.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--seed", "-1"], "seed must be"),
        (["--test-sessions", "1,2,3,4"], "test_sessions"),
        (["--parallel-trials", "-3"], "parallel_trials"),
        (["--parallel-trials", "0"], "parallel_trials"),
        (["--data", ""], "dataset file not found"),
        (["--test-sessions", "2,2"], "test_sessions must be strictly increasing, got [2, 2]"),
    ],
    ids=["seed", "no-train-session", "parallel-negative", "parallel-zero", "empty-path",
         "repeated-test-session"],
)
def test_run_bad_value_exits_2_naming_it_without_outputs(tmp_path, capsys, extra, named):
    data = gen_tiny(tmp_path)
    # the empty path replaces the file
    data_flags = [] if "--data" in extra else ["--data", str(data)]
    out = tmp_path / "bad"
    assert main(TINY_RUN + data_flags + extra + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_rerun_from_resolved_config_is_byte_identical(tmp_path):
    data = gen_tiny(tmp_path)
    _, first = run_tiny(tmp_path, data, "from_flags", ["--kappa", "1.1", "--snapshot"])
    second = tmp_path / "from_config"
    code = main(["run", "--config", str(first / "config.resolved.ini"), "--out", str(second)])
    assert code == 0
    for name in ("metrics.csv", "summary.json", "config.resolved.ini", "snapshots/trial_001.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_rerun_from_an_echo_reads_it_as_utf8_in_any_locale(tmp_path):
    """The C locale's preferred encoding is ASCII, and the echo holds its path
    in UTF-8. That locale cannot name the file either, so the rerun takes an
    ASCII copy through --data; the echo must still be read."""
    data = gen_tiny(tmp_path, "daten_\u00e4.csv")
    _, first = run_tiny(tmp_path, data, "first")
    (tmp_path / "data.csv").write_bytes(data.read_bytes())
    done = run_cli_process(
        ["run", "--config", "first/config.resolved.ini", "--data", "data.csv", "--out", "second"],
        cwd=tmp_path, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
    )
    assert done.returncode == 0, done.stderr
    assert (first / "metrics.csv").read_bytes() == (tmp_path / "second/metrics.csv").read_bytes()


def test_config_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    data, config = gen_tiny(tmp_path), tmp_path / "latin1.ini"
    config.write_bytes(b"[protocol]\n# Kapitel \xff\nseed = 3\n")
    code, out = run_tiny(tmp_path, data, "latin1", ["--config", str(config)])
    assert code == 2
    assert (f"error: malformed config file {config}: 'utf-8' codec can't decode byte 0xff"
            in capsys.readouterr().err)
    assert not out.exists()


def test_run_rejects_non_finite_features(tmp_path, capsys):
    data = gen_tiny(tmp_path)
    lines = data.read_text().splitlines()
    cells = lines[7].split(",")
    cells[-1] = "nan"
    lines[7] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    code, out = run_tiny(tmp_path, data, "nan_run")
    assert code == 2
    assert capsys.readouterr().err == f"error: {data}: line 8: non-finite feature value\n"
    assert not out.exists()


def test_flag_and_config_key_sets_are_pinned():
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )

    def flags(command):
        return {s for a in sub.choices[command]._actions for s in a.option_strings} - {
            "-h", "--help"
        }

    assert flags("run") == {
        "--config", "--protocol", "--mode", "--replay", "--nmax", "--epochs",
        "--trials", "--seed", "--test-sessions", "--data",
        "--insertion-threshold", "--habituation-threshold", "--tau-b", "--tau-n",
        "--kappa", "--eps-b", "--eps-n", "--beta", "--contexts", "--alpha",
        "--out", "--parallel-trials", "--snapshot", "--force",
    }
    assert flags("gen-data") == {
        "--categories", "--instances", "--sessions", "--dim", "--frames",
        "--cluster-spread", "--walk-step", "--noise", "--seed", "--out",
    }
    assert {name: set(keys) for name, keys in cli._SECTIONS.items()} == {
        "model": {
            "insertion_threshold", "habituation_threshold", "tau_b", "tau_n", "kappa",
            "eps_b", "eps_n", "beta", "num_contexts", "alpha",
        },
        "protocol": {
            "kind", "mode", "replay", "n_max", "epochs", "trials", "seed", "test_sessions",
        },
        "dataset": {"path"},
        "output": {"dir", "snapshot", "parallel_trials"},
    }


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    # `source` was the dataset selector before a path alone chose the file,
    # and `data_seed` seeded the synthetic set that gen-data now writes
    for text, key in (("[protocol]\nmodee = growing\n", "modee"),
                      ("[dataset]\nsource = file\n", "source"),
                      ("[dataset]\ndata_seed = 1\n", "data_seed")):
        config.write_text(text)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nn_max = 5\n", "[dataset]\npath = data.csv\n[DEFAULT]\nn_max = 5\n"],
    ids=["alone", "beside-a-section"],
)
def test_run_rejects_a_default_section(tmp_path, capsys, text):
    """configparser would copy [DEFAULT] keys into every section (or, alone,
    hide them and run at the defaults); here it is one more unknown section."""
    data, config = gen_tiny(tmp_path), tmp_path / "default.ini"
    config.write_text(text)
    code, _ = run_tiny(tmp_path, data, "x", ["--config", str(config)])
    assert code == 2
    assert "error: unknown config section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# a valid run.ini apart from its [dataset] section
_BASE_INI = {
    "model": {k: cli._format_value(getattr(HyperParams(), k)) for k in cli._HYPER_KEYS},
    "protocol": {
        "kind": "incremental", "mode": "growing", "replay": "true", "n_max": "30",
        "epochs": "0", "trials": "2", "seed": "3", "test_sessions": "2",
    },
    "output": {"dir": "out", "snapshot": "false", "parallel_trials": "1"},
}
_INI_KEYS = [(section, key) for section, keys in cli._SECTIONS.items() for key in keys]
# a '%' and a line break test the INI syntax itself
_INI_VALUES = st.sampled_from(
    ["", "abc", "-1", "2.0", "inf", "nan", "1e400", "1,2", "12345678901234567890",
     "100%", "1\nx"]
) | st.integers(-3, 40).map(str)


@settings(max_examples=400, deadline=None)
@given(with_path=st.booleans(), edit=st.sampled_from(_INI_KEYS), value=_INI_VALUES)
def test_fuzzed_run_ini_exits_2_or_reaches_the_run(tmp_path_factory, with_path, edit, value):
    """An edited run.ini exits 2 or reaches the run; without a dataset path
    it always exits 2."""
    work = tmp_path_factory.getbasetemp() / "ini_fuzz"
    if not work.exists():
        work.mkdir()
        gen_tiny(work)
    dataset = {"path": str(work / "data.csv")} if with_path else {}
    sections = {name: dict(keys) for name, keys in {**_BASE_INI, "dataset": dataset}.items()}
    section, key = edit
    sections[section][key] = value
    config = work / "run.ini"
    config.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))
    with pytest.MonkeyPatch.context() as patch:
        # relative output directories land in the work directory
        patch.chdir(work)
        patch.setattr(cli, "run_protocol", _reach_run)
        try:
            code = main(["run", "--config", str(config)])
        except _RunReached:
            assert with_path
            return
    assert code == 2


def test_compare_two_runs_and_self_identity(tmp_path, capsys):
    data = gen_tiny(tmp_path)
    _, out_a = run_tiny(tmp_path, data, "cmp_a")
    _, out_b = run_tiny(tmp_path, data, "cmp_b", ["--mode", "static"])
    table = tmp_path / "cmp.csv"
    code = main(["compare", str(out_a), str(out_b), "--out", str(table)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "checkpoint" in printed and "deltas" in printed
    assert table.is_file()

    self_table = tmp_path / "self.csv"
    code = main(["compare", str(out_a), str(out_a), str(out_b), "--out", str(self_table)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "(+0.0000)" in printed
    for path, runs in ((table, 2), (self_table, 3)):
        lines = [line.split(",") for line in path.read_text().splitlines()]
        assert len(lines[0]) == 1 + 2 * runs
        assert all(len(cells) == len(lines[0]) for cells in lines)
        assert lines[-1][0] == "final_delta" and lines[-1][2::2] == [""] * runs


def test_compare_missing_summary_names_directory(tmp_path, capsys):
    data = gen_tiny(tmp_path)
    _, out_a = run_tiny(tmp_path, data, "cmp_c")
    missing = tmp_path / "not_a_run"
    missing.mkdir()
    code = main(["compare", str(out_a), str(missing), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "not_a_run" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"checkpoints": [1]}',
        "[1, 2]",
        '"summary"',
        "{",
        '{"checkpoints": [], "by_checkpoint": {}}',
        json.dumps({"checkpoints": [[1]], "by_checkpoint": {"[1]": {"acc_overall": {"mean": 0.5, "std": 0.0}}}}),
        json.dumps({"checkpoints": [1], "by_checkpoint": {"1": {"acc_overall": 0.5}}}),
        json.dumps({"checkpoints": [1], "by_checkpoint": {"1": {"acc_overall": {"mean": "0.5", "std": 0.0}}}}),
        json.dumps({"checkpoints": [1], "by_checkpoint": {"1": {"acc_overall": {"mean": 0.5, "std": 0.0}}}}),
        json.dumps({"checkpoints": [1], "by_checkpoint": {"1": {"acc_overall": {"mean": 0.5, "std": 0.0}}},
                    "config": {"dataset": {"path": "d.csv"}, "protocol": {"seed": "1"}}}),
        "[" * 100_000,
    ],
    ids=[
        "no-table", "list", "string", "truncated", "empty-grid", "list-checkpoint",
        "number-cell", "string-mean", "no-config-echo", "partial-config-echo",
        "deeply-nested",
    ],
)
def test_compare_rejects_malformed_summary(tmp_path, capsys, text):
    run = tmp_path / "bad_run"
    run.mkdir()
    (run / "summary.json").write_text(text)
    assert main(["compare", str(run), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "malformed summary.json" in err and "bad_run" in err


def test_compare_rejects_mismatched_grids(tmp_path, capsys):
    data = gen_tiny(tmp_path)
    _, out_a = run_tiny(tmp_path, data, "cmp_d")
    out_b = tmp_path / "cmp_e"
    code = main(
        ["run", "--protocol", "batch", "--epochs", "2", "--mode", "growing",
         "--nmax", "30", "--trials", "1", "--seed", "3", "--test-sessions", "2",
         "--data", str(data), "--out", str(out_b)]
    )
    assert code == 0
    code = main(["compare", str(out_a), str(out_b), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "incompatible checkpoint grids" in capsys.readouterr().err


def test_compare_rejects_runs_on_different_streams(tmp_path, capsys):
    data = gen_tiny(tmp_path)
    _, out_a = run_tiny(tmp_path, data, "cmp_f")
    _, out_b = run_tiny(tmp_path, data, "cmp_g", ["--seed", "4"])
    table = tmp_path / "t.csv"
    assert main(["compare", str(out_a), str(out_b), "--out", str(table)]) == 2
    err = capsys.readouterr().err
    assert "runs saw different streams: they differ in seed (" in err
    assert "cmp_f: 3" in err and "cmp_g: 4" in err and not table.exists()
    for key in ("path", "trials", "test_sessions", "kind", "epochs"):
        assert f"{key} (" not in err


def test_snapshot_dump(tmp_path, capsys):
    data = gen_tiny(tmp_path)
    _, out = run_tiny(tmp_path, data, "dump_run", ["--snapshot"])
    code = main(["snapshot-dump", str(out / "snapshots" / "trial_000.json"), "--neurons"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "mode=growing" in printed
    # one line for each neuron the header counts, in id order
    count = int(re.search(r"(?m)^  neurons=(\d+) ", printed).group(1))
    assert re.findall(r"(?m)^  neuron (\d+): ", printed) == [str(k) for k in range(count)]


@pytest.fixture(scope="module")
def tiny_snapshot(tmp_path_factory):
    """The text of the first snapshot a tiny growing run writes."""
    work = tmp_path_factory.mktemp("tiny_snapshot")
    _, out = run_tiny(work, gen_tiny(work), "run", ["--snapshot"])
    return (out / "snapshots" / "trial_000.json").read_text()


def dump_edited(tmp_path, capsys, text, edit):
    """`snapshot-dump` of ``text`` after ``edit`` changes its parse; returns
    the exit code and what the command printed."""
    doc = json.loads(text)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    return main(["snapshot-dump", str(path)]), capsys.readouterr()


def test_snapshot_dump_reports_missing_key(tmp_path, capsys, tiny_snapshot):
    code, captured = dump_edited(tmp_path, capsys, tiny_snapshot, lambda doc: doc.pop("hyper"))
    assert code == 2
    assert "'hyper'" in captured.err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(comment="x"), r"snapshot has unknown keys \['comment'\]"),
        (lambda doc: doc["hyper"].update(kappa="fast"),
         "snapshot hyper is malformed: kappa must be a finite real number, got 'fast'"),
        (lambda doc: doc.update(prev_bmu=999), "snapshot prev_bmu 999 names no neuron"),
        (lambda doc: doc["edges"].append([0, 999]),
         r"snapshot edges name a neuron that does not exist \(no neuron with id 999\)"),
        (lambda doc: doc["hyper"].update(n_max=2),
         r"snapshot is not a valid network: \d+ neurons exceed n_max 2"),
        (lambda doc: doc["neurons"][1].update(habituation=0.04),
         "snapshot is not a valid network: habituation below the floor 1 - 1/kappa"),
    ],
    ids=["unknown-top-level-key", "bad-hyper-value", "prev-bmu-missing", "edge-to-missing-neuron",
         "more-neurons-than-n-max", "habituation-below-floor"],
)
def test_snapshot_dump_rejects_malformed_snapshot(tmp_path, capsys, tiny_snapshot, edit, message):
    """One row for each way a load fails: the loader's own rule, and each
    HyperParams, Network and check_invariants error it turns into a
    ValueError. Each reaches the shell as exit 2, one error line naming the
    file and no output; the rules themselves are tested in
    tests/test_snapshot.py."""
    code, captured = dump_edited(tmp_path, capsys, tiny_snapshot, edit)
    assert code == 2
    path = re.escape(str(tmp_path / "edited.json"))
    assert re.fullmatch(f"error: {path}: {message}\n", captured.err)
    assert captured.out == ""


def test_snapshot_dump_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["snapshot-dump", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: snapshot JSON is nested too deeply to parse\n"
    assert captured.out == ""


def test_snapshot_dump_missing_file(tmp_path, capsys):
    code = main(["snapshot-dump", str(tmp_path / "none.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err
