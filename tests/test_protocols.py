"""Experiment protocol orchestration."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gwrnet import protocols
from gwrnet.datasets import (
    Dataset, Sequence, SyntheticSpec, generate_synthetic, split_by_sessions
)
from gwrnet.labeling import LabelAssociations
from gwrnet.model import GROWING, HyperParams, Network, init_growing, init_static
from gwrnet.protocols import (
    MetricsRecord,
    ProtocolSpec,
    evaluate,
    incremental_plan,
    metrics_census,
    run_protocol,
    summarize,
    write_metrics_csv,
)
from gwrnet.snapshot import load_snapshot

TINY = SyntheticSpec(
    categories=3,
    instances=2,
    sessions=4,
    dim=6,
    frames_per_seq=5,
    cluster_spread=0.5,
    walk_step=0.05,
    noise=0.02,
)
TEST_SESSIONS = (2,)


def tiny_dataset():
    return generate_synthetic(TINY, seed=5)


def tiny_spec(**overrides):
    base = dict(
        kind="incremental",
        mode="growing",
        replay=False,
        n_max=30,
        trials=2,
        seed=3,
        test_sessions=TEST_SESSIONS,
    )
    base.update(overrides)
    return ProtocolSpec(**base)


def strip_wall(records):
    return [
        (r.trial, r.checkpoint, r.mode, r.replay, r.n_neurons, r.acc_overall,
         r.acc_seen, r.forgetting_mean, r.replay_steps, tuple(sorted(r.per_category.items())))
        for r in records
    ]


# -- spec validation ---------------------------------------------------------


def test_spec_batch_requires_epochs():
    with pytest.raises(ValueError, match="epochs"):
        tiny_spec(kind="batch")


def test_spec_incremental_rejects_multi_epoch():
    with pytest.raises(ValueError, match="one iteration"):
        tiny_spec(epochs=3)
    # 1 trained exactly as 0 does, yet `compare` told the two runs apart
    with pytest.raises(ValueError, match="one iteration per mini-batch: epochs must be 0"):
        tiny_spec(epochs=1)


def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        tiny_spec(trials=0)
    with pytest.raises(ValueError):
        tiny_spec(kind="stream")
    with pytest.raises(ValueError):
        tiny_spec(mode="frozen")
    with pytest.raises(ValueError):
        tiny_spec(test_sessions=())
    with pytest.raises(ValueError, match="seed"):
        tiny_spec(seed=-1)
    for bad in ({"trials": 1.5}, {"trials": True}, {"seed": 1.5}, {"n_max": 30.0}):
        with pytest.raises(ValueError, match="must be an int"):
            tiny_spec(**bad)
    with pytest.raises(ValueError, match="epochs must be an int"):
        tiny_spec(kind="batch", epochs=1.5)
    with pytest.raises(ValueError, match="replay must be a bool"):
        tiny_spec(replay="no")
    for bad in ((True,), (1.0,), (2, 1.5)):
        with pytest.raises(ValueError, match="test_sessions entry must be an int"):
            tiny_spec(test_sessions=bad)
    for bad in (3, [2]):
        with pytest.raises(ValueError, match="test_sessions must be a tuple"):
            tiny_spec(test_sessions=bad)
    for bad in ((2, 2), (3, 2), (1, 3, 3)):
        with pytest.raises(ValueError, match=re.escape(f"increasing, got {list(bad)}")):
            tiny_spec(test_sessions=bad)
    with pytest.raises(ValueError, match="hyper must be a HyperParams, got None"):
        tiny_spec(hyper=None)
    with pytest.raises(ValueError, match="n_max must be at least 2"):
        tiny_spec(n_max=1)


def test_spec_states_its_capacity_once():
    """The spec's n_max is the one its networks are built with."""
    spec = tiny_spec()
    assert spec.hyper.n_max == spec.n_max == 30
    assert ProtocolSpec(hyper=HyperParams(n_max=50)) == ProtocolSpec()
    assert replace(spec, n_max=40).hyper.n_max == 40
    with pytest.raises(ValueError, match="n_max must be at least 2"):
        ProtocolSpec(hyper=HyperParams(n_max=50), n_max=1)


# -- evaluation ---------------------------------------------------------------


def test_evaluate_perfect_memorization():
    dataset = tiny_dataset()
    _, test = split_by_sessions(dataset, TEST_SESSIONS)
    seq = test.sequences[0]
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=test.num_frames + 2)
    # two seed neurons, then every frame of every test sequence as its own one
    weights = [seq.features[0], seq.features[1]]
    instances = [seq.instance, seq.instance]
    for s in test.sequences:
        weights += list(s.features)
        instances += [s.instance] * len(s)
    net = Network(hyper, GROWING, np.array(weights)[:, None])
    counts = LabelAssociations()
    for nid, instance in enumerate(instances):
        counts.record(nid, instance)
    assert all(correct == frames for correct, frames in evaluate(net, counts, test).values())


def test_evaluate_unlabeled_network_scores_zero():
    dataset = tiny_dataset()
    _, test = split_by_sessions(dataset, TEST_SESSIONS)
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=5)
    net = init_static(test.dim, hyper, -1.0, 1.0, 3)
    counts = evaluate(net, LabelAssociations(), test)
    assert all(c == 0 for c, _ in counts.values())


def test_evaluate_rejects_empty_split():
    dataset = tiny_dataset()
    _, test = split_by_sessions(dataset, TEST_SESSIONS)
    empty = split_by_sessions(dataset, dataset.sessions)[0]
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=5)
    net = init_static(test.dim, hyper, -1.0, 1.0, 3)
    with pytest.raises(ValueError, match="empty test split"):
        evaluate(net, LabelAssociations(), empty)


def test_evaluate_per_category_totals_cover_split():
    dataset = tiny_dataset()
    _, test = split_by_sessions(dataset, TEST_SESSIONS)
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=5)
    net = init_static(test.dim, hyper, -1.0, 1.0, 3)
    counts = evaluate(net, LabelAssociations(), test)
    assert list(counts) == test.categories
    assert sum(t for _, t in counts.values()) == test.num_frames


def _trained(num_contexts=2):
    """A growing network trained one pass over the tiny training split, with
    its label table; the last sequence's context is left in place."""
    train, test = split_by_sessions(tiny_dataset(), TEST_SESSIONS)
    alpha = (0.67, 0.24, 0.09)[: num_contexts + 1]
    hyper = HyperParams(num_contexts=num_contexts, alpha=alpha, n_max=25)
    frames = train.all_features()
    net = init_growing(train.dim, hyper, (frames[0], frames[1]))
    counts = LabelAssociations()
    for seq in train.sequences:
        net.reset_context()
        for x in seq.features:
            counts.record(net.step(x).credited, seq.instance)
    return net, counts, test


def _ragged(test):
    """The test split with sequence lengths cycling through 1..T, in an
    order where long and short sequences interleave."""
    longest = max(len(s) for s in test.sequences)
    cut = [
        replace(seq, features=seq.features[: 1 + (3 * i) % longest])
        for i, seq in enumerate(test.sequences)
    ]
    return Dataset(cut, test.dim)


def _frame_by_frame(net, counts, test, full_scan):
    """Reference evaluation: each sequence alone, one full scan per frame,
    the context from the previous winner by the context rule."""
    beta, k = net.hyper.beta, net.hyper.num_contexts
    out = {c: [0, 0] for c in test.categories}
    for seq in test.sequences:
        query, prev = np.zeros((k + 1, net.dim)), None
        for x in seq.features:
            if prev is not None:
                unit = net._units[prev]
                query[1:] = unit[:k] * (1.0 - beta) + beta * unit[0]
            query[0] = x
            prev = full_scan(net, query)[0]
            out[seq.category][1] += 1
            out[seq.category][0] += counts.predict(prev) == seq.instance
    return {c: tuple(v) for c, v in out.items()}


@pytest.mark.parametrize("num_contexts", [0, 2])
def test_lockstep_evaluate_equals_frame_by_frame_reference(full_scan, num_contexts):
    net, counts, test = _trained(num_contexts)
    ragged = _ragged(test)
    lengths = sorted(len(s) for s in ragged.sequences)
    assert lengths.count(1) >= 2 and lengths[-1] == 5 and len(set(lengths)) == 5
    for split in (test, ragged):
        want = _frame_by_frame(net, counts, split, full_scan)
        assert sum(c for c, _ in want.values()) > 0
        assert evaluate(net, counts, split) == want


def test_evaluate_leaves_the_network_untouched():
    net, counts, test = _trained()
    before = [a.copy() for a in (net._units, net._hab, net._sqnorm32, net._units32)]
    before.append(net.global_context)
    state = (net.prev_bmu, net.step_count, net.num_neurons, net.edges, list(counts.items()))
    assert net.prev_bmu is not None and before[-1].any()
    evaluate(net, counts, _ragged(test))
    after = [net._units, net._hab, net._sqnorm32, net._units32, net.global_context]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert (net.prev_bmu, net.step_count, net.num_neurons, net.edges, list(counts.items())) == state
    assert counts.replay_records == 0


# -- incremental protocol -------------------------------------------------------


def test_incremental_plan_is_mode_independent_and_seeded():
    dataset = tiny_dataset()
    train, _ = split_by_sessions(dataset, TEST_SESSIONS)
    grow = tiny_spec(mode="growing")
    static = tiny_spec(mode="static")
    for trial in range(3):
        order_g, batches_g = incremental_plan(grow, train, trial)
        order_s, batches_s = incremental_plan(static, train, trial)
        assert order_g == order_s
        assert [[s.sequence_id for s in b] for b in batches_g] == [
            [s.sequence_id for s in b] for b in batches_s
        ]
    a, _ = incremental_plan(grow, train, 0)
    b, _ = incremental_plan(grow, train, 1)
    assert set(a) == set(b)


def test_incremental_minibatch_covers_all_category_sequences():
    dataset = tiny_dataset()
    train, _ = split_by_sessions(dataset, TEST_SESSIONS)
    order, batches = incremental_plan(tiny_spec(), train, 0)
    for category, batch in zip(order, batches):
        expected = {s.sequence_id for s in train.sequences_of(category)}
        assert {s.sequence_id for s in batch} == expected


def _per_session_plan(spec, train, trial):
    """The plan as one (category, session) scan at a time: the reference for
    incremental_plan's order."""
    rng = protocols._trial_rng(spec, trial)
    categories = train.categories
    category_order = [categories[i] for i in rng.permutation(len(categories))]
    sessions = train.sessions
    session_order = [sessions[i] for i in rng.permutation(len(sessions))]
    minibatches = []
    for category in category_order:
        seqs = []
        for session in session_order:
            scan = [s for s in train.sequences if s.category == category and s.session == session]
            seqs.extend(sorted(scan, key=lambda s: s.instance))
        minibatches.append(seqs)
    return category_order, minibatches


def test_incremental_plan_matches_per_session_reference():
    rng = np.random.default_rng(0)
    sequences = []
    for session in (1, 2, 3, 4):
        for category, instances in (("a", 12), ("b", 3)):
            # ids run against the instances' text order ("ao10" < "ao2")
            for ii in reversed(range(instances)):
                instance = f"{category}o{ii}"
                features = rng.standard_normal((2, 3))
                sequences.append(Sequence(category, instance, session, len(sequences), features))
    # a second recording of one (category, instance, session)
    sequences.append(Sequence("a", "ao3", 2, len(sequences), rng.standard_normal((2, 3))))
    train = Dataset(sequences)
    for seed, trial in ((1, 0), (1, 3), (4, 1), (9, 2), (12, 5)):
        spec = tiny_spec(seed=seed)
        order, batches = incremental_plan(spec, train, trial)
        want_order, want_batches = _per_session_plan(spec, train, trial)
        assert order == want_order
        assert [[s.sequence_id for s in b] for b in batches] == [
            [s.sequence_id for s in b] for b in want_batches
        ]


def test_incremental_one_checkpoint_per_category():
    dataset = tiny_dataset()
    spec = tiny_spec()
    records = run_protocol(spec, dataset).records
    checkpoints = sorted({r.checkpoint for r in records})
    assert checkpoints == [1, 2, 3]
    for trial in range(spec.trials):
        assert len([r for r in records if r.trial == trial]) == 3


def test_incremental_single_pass_over_training_frames():
    dataset = tiny_dataset()
    train, _ = split_by_sessions(dataset, TEST_SESSIONS)
    spec = tiny_spec(trials=1)
    result = run_protocol(spec, dataset, with_snapshots=True)
    net, _ = load_snapshot(result.snapshots[0])
    assert net.step_count == train.num_frames
    # transitions: one per non-boundary step
    boundaries = len(train.sequences)
    assert sum(count for _, _, count in net.transitions) == train.num_frames - boundaries


def test_incremental_growing_neuron_count_is_monotone():
    records = run_protocol(tiny_spec(), tiny_dataset()).records
    for trial in (0, 1):
        counts = [r.n_neurons for r in sorted(
            (x for x in records if x.trial == trial), key=lambda r: r.checkpoint)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] <= 30


def test_incremental_static_keeps_capacity_count():
    records = run_protocol(tiny_spec(mode="static"), tiny_dataset()).records
    assert all(r.n_neurons == 30 for r in records)
    assert all(r.replay_steps == 0 for r in records)


def test_incremental_replay_reports_steps():
    records = run_protocol(tiny_spec(replay=True), tiny_dataset()).records
    finals = [r for r in records if r.checkpoint == 3]
    assert all(r.replay_steps > 0 for r in finals)
    for trial in (0, 1):
        steps = [r.replay_steps for r in sorted(
            (x for x in records if x.trial == trial), key=lambda r: r.checkpoint)]
        assert all(a <= b for a, b in zip(steps, steps[1:]))


def test_trial_records_do_not_depend_on_trial_count():
    dataset = tiny_dataset()
    two = run_protocol(tiny_spec(trials=2), dataset).records
    three = run_protocol(tiny_spec(trials=3), dataset).records
    assert strip_wall([r for r in three if r.trial < 2]) == strip_wall(two)


def test_acc_seen_tracks_encountered_categories():
    records = run_protocol(tiny_spec(), tiny_dataset()).records
    first = [r for r in records if r.trial == 0 and r.checkpoint == 1][0]
    # only one category encountered: its accuracy is the seen accuracy
    assert first.acc_seen >= first.acc_overall


# -- batch protocol ---------------------------------------------------------------


def test_batch_one_record_per_epoch():
    spec = tiny_spec(kind="batch", epochs=4)
    records = run_protocol(spec, tiny_dataset()).records
    assert sorted({r.checkpoint for r in records}) == [1, 2, 3, 4]


def test_batch_growing_neuron_count_monotone():
    spec = tiny_spec(kind="batch", epochs=4)
    records = run_protocol(spec, tiny_dataset()).records
    for trial in (0, 1):
        counts = [r.n_neurons for r in sorted(
            (x for x in records if x.trial == trial), key=lambda r: r.checkpoint)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_batch_static_constant_count():
    spec = tiny_spec(kind="batch", epochs=3, mode="static")
    records = run_protocol(spec, tiny_dataset()).records
    assert all(r.n_neurons == 30 for r in records)


def test_batch_rerun_is_deterministic():
    spec = tiny_spec(kind="batch", epochs=3)
    dataset = tiny_dataset()
    first = run_protocol(spec, dataset).records
    assert strip_wall(first) == strip_wall(run_protocol(spec, dataset).records)


def test_batch_kind_guard():
    # the kind selects the trial plan, so switching it on a finished spec
    # must re-check the epoch count that goes with it
    with pytest.raises(ValueError):
        replace(tiny_spec(), kind="batch")
    with pytest.raises(ValueError):
        replace(tiny_spec(kind="batch", epochs=2), kind="incremental")


# -- parallel execution -------------------------------------------------------------


def test_parallel_trials_match_serial():
    dataset = tiny_dataset()
    spec = tiny_spec(trials=4)
    serial = run_protocol(spec, dataset, workers=1, with_snapshots=True)
    parallel = run_protocol(spec, dataset, workers=4, with_snapshots=True)
    assert strip_wall(serial.records) == strip_wall(parallel.records)
    assert serial.snapshots == parallel.snapshots


def test_import_leaves_the_process_pool_unloaded():
    """The process pool's modules load only in a run that uses workers, so a
    serial run does not carry them. Nor does any run load ``logging``: no
    module configures a handler, so a logger would only cost the import."""
    src = Path(protocols.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    unloaded = ("concurrent.futures.process", "multiprocessing", "logging")
    code = f"import sys, gwrnet.cli; print([m for m in {unloaded!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout == "[]\n"


# -- metrics ------------------------------------------------------------------------


def fake_record(trial, checkpoint, per_category, acc=None):
    return MetricsRecord(
        trial=trial,
        checkpoint=checkpoint,
        mode="growing",
        replay=False,
        n_neurons=5,
        acc_overall=acc if acc is not None else float(np.mean(list(per_category.values()))),
        acc_seen=0.0,
        forgetting_mean=0.0,
        replay_steps=0,
        wall_ms=1.0,
        per_category=per_category,
    )


def scripted_trial(monkeypatch, script):
    """Records of a one-trial incremental run whose evaluation at checkpoint i
    returns ``script[i]``: per-category (correct, frames) counts keyed by the
    position of the category in the trial's presentation order."""
    dataset = tiny_dataset()
    spec = tiny_spec(trials=1)
    order, _ = incremental_plan(spec, split_by_sessions(dataset, TEST_SESSIONS)[0], 0)
    calls = iter(script)
    monkeypatch.setattr(
        protocols, "evaluate",
        lambda *_: {order[i]: pair for i, pair in next(calls).items()},
    )
    return order, run_protocol(spec, dataset).records


# the first-presented category declines from 0.9 to 0.4; the third scores
# 1.0 before its presentation at checkpoint 3 and 0.7 at it
DECLINING = [
    {0: (9, 10), 1: (2, 10), 2: (10, 10)},
    {0: (5, 10), 1: (8, 10), 2: (6, 10)},
    {0: (4, 10), 1: (8, 10), 2: (7, 10)},
]


def test_checkpoint_scores_come_from_evaluation_counts(monkeypatch):
    order, records = scripted_trial(monkeypatch, DECLINING)
    assert [r.acc_overall for r in records] == [21 / 30, 19 / 30, 19 / 30]
    # the categories presented so far: one, two, then all three
    assert [r.acc_seen for r in records] == [9 / 10, 13 / 20, 19 / 30]
    assert records[1].per_category == {order[0]: 0.5, order[1]: 0.8, order[2]: 0.6}


def test_forgetting_peak_minus_final(monkeypatch):
    _, records = scripted_trial(monkeypatch, DECLINING)
    # the peak counts only from a category's first presentation: the third
    # scored 1.0 before it was presented and has forgotten nothing since
    assert [r.forgetting_mean for r in records] == pytest.approx(
        [0.0, (0.4 + 0.0) / 2, (0.5 + 0.0 + 0.0) / 3]
    )


def test_forgetting_zero_without_decline(monkeypatch):
    # the later categories score higher before their presentation than at it,
    # and no category declines once presented
    _, records = scripted_trial(monkeypatch, [
        {0: (6, 10), 1: (9, 10), 2: (10, 10)},
        {0: (6, 10), 1: (3, 10), 2: (2, 10)},
        {0: (8, 10), 1: (5, 10), 2: (2, 10)},
    ])
    assert [r.forgetting_mean for r in records] == [0.0, 0.0, 0.0]


def test_run_protocol_rejects_a_split_with_no_train_session():
    with pytest.raises(ValueError, match=r"test_sessions \[1, 2, 3, 4\] leave no session"):
        run_protocol(tiny_spec(test_sessions=(1, 2, 3, 4)), tiny_dataset())


def test_metrics_csv_is_deterministic_and_excludes_wall_time(tmp_path):
    records = run_protocol(tiny_spec(), tiny_dataset()).records
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(records, a)
    write_metrics_csv(records, b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0].split(",")
    assert "wall_ms" not in header
    assert header[:9] == [
        "trial", "checkpoint", "mode", "replay", "n_neurons",
        "acc_overall", "acc_seen", "forgetting_mean", "replay_steps",
    ]
    _, categories = metrics_census(records)
    assert header[9:] == [f"acc_{c}" for c in categories]


def test_metrics_csv_cells_are_plain_numbers(tmp_path):
    records = [
        replace(fake_record(0, 1, {"a": np.float64(0.25)}, acc=np.float64(0.5)),
                replay=True, n_neurons=np.int64(7), acc_seen=np.float64(0.125)),
        fake_record(0, 2, {"a": 0.75}),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(records, path)
    text = path.read_text()
    assert "np." not in text
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[1] == ["0", "1", "growing", "1", "7", "0.5", "0.125", "0.0", "0", "0.25"]
    assert rows[2][3] == "0"


def test_summarize_mean_and_std():
    records = [
        fake_record(0, 1, {"a": 0.8}, acc=0.6),
        fake_record(1, 1, {"a": 0.4}, acc=0.8),
    ]
    doc = summarize(tiny_spec(), records)
    cell = doc["by_checkpoint"]["1"]["acc_overall"]
    assert cell["mean"] == pytest.approx(0.7)
    assert cell["std"] == pytest.approx(0.1)
    assert doc["by_checkpoint"]["1"]["acc_a"]["mean"] == pytest.approx(0.6)


@pytest.mark.parametrize(
    "flags",
    [
        ["--protocol", "incremental", "--mode", "growing", "--replay", "--nmax", "40"],
        ["--protocol", "batch", "--epochs", "2", "--mode", "static", "--nmax", "150"],
    ],
    ids=["incremental-growing-replay", "batch-static"],
)
def test_screened_matching_matches_full_scan_end_to_end(tmp_path, monkeypatch, full_scan, flags):
    """A run with the shipped kernels and one with the full-scan reference in
    their place, for training and for lockstep evaluation, write the same
    metrics.csv and snapshot bytes, and the network's invariants hold after
    training and after loading the snapshot."""
    from gwrnet import cli, protocols
    from gwrnet.datasets import write_features
    from gwrnet.model import Network

    data = tmp_path / "data.csv"
    write_features(tiny_dataset(), data)
    trained = []

    def checked_save(network, label_counts):
        network.check_invariants()
        trained.append(network)
        return save(network, label_counts)

    save = protocols.save_snapshot
    monkeypatch.setattr(protocols, "save_snapshot", checked_save)
    outputs = {}
    for kernel in ("screened", "full_scan"):
        if kernel == "full_scan":
            monkeypatch.setattr(Network, "_nearest", full_scan)
            monkeypatch.setattr(
                Network, "_nearest_many",
                lambda net, queries: tuple(map(np.array, zip(*(full_scan(net, q) for q in queries)))),
            )
        out = tmp_path / kernel
        argv = ["run", "--data", str(data), "--trials", "2", "--seed", "4",
                "--test-sessions", "2", "--out", str(out), "--snapshot"]
        assert cli.main(argv + flags) == 0
        snapshots = sorted((out / "snapshots").iterdir())
        outputs[kernel] = [(out / "metrics.csv").read_bytes()] + [p.read_bytes() for p in snapshots]
        for path in snapshots:
            load_snapshot(path.read_text())[0].check_invariants()
    assert len(trained) == 4
    assert outputs["screened"] == outputs["full_scan"]
