"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s or
-v to see them even on success). Expected values are hand-derived or come
from independent brute-force oracles re-implemented in this module.

Known failure: criterion 6a (replay benefit for the growing network) does
not hold at this benchmark scale. Ablation shows the replay mechanism's
positive channels (habituation maturation, which slows later drag of trained
neurons, and trajectory consolidation) cancel against its negative channel
(re-recording current majority labels entrenches readouts while
capacity-bound training migrates neurons toward later categories). Sweeping
the benchmark dispersion parameters moves the paired delta between -14 and
+0.3 points, never near +3. The test states the criterion as specified and
is expected red.
"""

import copy
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gwrnet.cli import main
from gwrnet.datasets import SyntheticSpec, generate_synthetic, split_by_sessions
from gwrnet.labeling import LabelAssociations
from gwrnet.model import (
    GROWING,
    HyperParams,
    Network,
    activity,
    habituate,
    init_growing,
    init_static,
)
from gwrnet.protocols import ProtocolSpec, incremental_plan, run_protocol
from gwrnet.replay import generate_rnat
from gwrnet.snapshot import load_snapshot, save_snapshot

REL = 1e-12

BENCH_DATA_SEED = 1
BENCH_TRIALS = 10
BENCH_NMAX = 300


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def rel_close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL, abs_tol=1e-15)


# -- shared fixtures -----------------------------------------------------------


@pytest.fixture(scope="module")
def bench_dataset():
    return generate_synthetic(SyntheticSpec(), seed=BENCH_DATA_SEED)


@pytest.fixture(scope="module")
def incremental_runs(bench_dataset):
    """Final-checkpoint accuracies for the four incremental configurations."""
    out = {}
    for mode in ("growing", "static"):
        for replay in (False, True):
            spec = ProtocolSpec(
                kind="incremental",
                mode=mode,
                replay=replay,
                n_max=BENCH_NMAX,
                trials=BENCH_TRIALS,
                seed=1,
            )
            start = time.perf_counter()
            result = run_protocol(spec, bench_dataset, workers=4)
            elapsed = time.perf_counter() - start
            final = max(r.checkpoint for r in result.records)
            finals = np.array(
                [
                    r.acc_overall
                    for r in sorted(result.records, key=lambda q: (q.trial, q.checkpoint))
                    if r.checkpoint == final
                ]
            )
            out[(mode, replay)] = (finals, elapsed)
    return out


@pytest.fixture(scope="module")
def batch_epochs_to_criterion(bench_dataset):
    """Epochs until 95% of own final accuracy, per mode, over 5 seeds."""
    epochs = {}
    for mode in ("growing", "static"):
        spec = ProtocolSpec(
            kind="batch",
            mode=mode,
            replay=False,
            n_max=BENCH_NMAX,
            epochs=35,
            trials=5,
            seed=1,
        )
        result = run_protocol(spec, bench_dataset, workers=5)
        firsts = []
        for trial in range(spec.trials):
            accs = [
                r.acc_overall
                for r in sorted(
                    (x for x in result.records if x.trial == trial),
                    key=lambda r: r.checkpoint,
                )
            ]
            threshold = 0.95 * accs[-1]
            firsts.append(next(i + 1 for i, a in enumerate(accs) if a >= threshold))
        epochs[mode] = firsts
    return epochs


@pytest.fixture(scope="module")
def gating_audit():
    """100 seeded incremental runs with a pre-step oracle on every iteration.

    Collects capacity, gating, and insertion-interference violations for
    criteria 4 and 8.
    """
    small = SyntheticSpec(
        categories=3,
        instances=2,
        sessions=4,
        dim=6,
        frames_per_seq=5,
        cluster_spread=0.6,
        walk_step=0.08,
        noise=0.03,
    )
    n_max = 20
    hyper = replace(HyperParams(), n_max=n_max)
    capacity_violations = 0
    gate_violations = 0
    interference_violations = 0
    static_insertions = 0
    insertions = 0
    steps = 0
    for run_index in range(100):
        mode = "growing" if run_index % 10 < 7 else "static"
        dataset = generate_synthetic(small, seed=100 + run_index)
        train, _ = split_by_sessions(dataset, (2,))
        spec = ProtocolSpec(
            kind="incremental",
            mode=mode,
            replay=False,
            n_max=n_max,
            trials=1,
            seed=run_index,
            test_sessions=(2,),
        )
        _, minibatches = incremental_plan(spec, train, 0)
        first = np.concatenate([s.features for s in minibatches[0]])
        if mode == "static":
            low, high = first.min(axis=0), first.max(axis=0)
            net = init_static(train.dim, hyper, low, high, run_index)
        else:
            net = init_growing(train.dim, hyper, (first[0], first[1]))
        for batch in minibatches:
            for seq in batch:
                net.reset_context()
                for t in range(len(seq)):
                    probe = copy.deepcopy(net)
                    before = net._units[: net.num_neurons].copy()
                    out = net.step(seq.features[t])
                    steps += 1
                    if net.num_neurons > n_max:
                        capacity_violations += 1
                    # re-derive the insertion gate on the pre-step clone
                    b, _, d = probe.find_bmu(seq.features[t])
                    gate = (
                        probe.mode == GROWING
                        and math.exp(-d) < hyper.insertion_threshold
                        and probe.unit_table()[1][b] < hyper.habituation_threshold
                        and probe.num_neurons < n_max
                    )
                    if (out.inserted is not None) != gate:
                        gate_violations += 1
                    if out.inserted is not None:
                        insertions += 1
                        if mode == "static":
                            static_insertions += 1
                        if not np.array_equal(before, net._units[: before.shape[0]]):
                            interference_violations += 1
    return dict(
        steps=steps,
        insertions=insertions,
        capacity_violations=capacity_violations,
        gate_violations=gate_violations,
        interference_violations=interference_violations,
        static_insertions=static_insertions,
    )


# -- criterion 1: equation unit suite -------------------------------------------


def test_criterion_1_equation_suite():
    start = time.perf_counter()
    k0 = HyperParams(num_contexts=0, alpha=(1.0,), n_max=10)
    net = init_growing(2, k0, (np.zeros(2), np.array([5.0, 5.0])))
    checks = [
        rel_close(net.distance(0, np.array([0.0, 0.0])), 0.0),
        rel_close(net.distance(0, np.array([3.0, 4.0])), 25.0),  # 3^2 + 4^2
    ]
    ref = init_growing(2, HyperParams(n_max=10), (np.zeros(2), np.ones(2)))
    checks.append(rel_close(ref.distance(0, np.array([1.0, 0.0])), 0.67))
    checks.append(rel_close(activity(0.0), 1.0))
    checks.append(rel_close(activity(0.67), math.exp(-0.67)))
    checks.append(activity(50.0) < 1e-20 and activity(50.0) > 0.0)
    checks.append(rel_close(habituate(1.0, 0.3, 1.05), 0.7))
    checks.append(rel_close(habituate(0.5, 0.1, 1.05), 0.4525))
    fp = 1.0 - 1.0 / 1.05
    checks.append(abs(habituate(fp, 0.3, 1.05) - fp) < 1e-12)
    adapt_net = init_growing(2, k0, (np.zeros(2), np.array([5.0, 5.0])))
    adapt_net.adapt(0, np.array([1.0, 0.0]))
    checks.append(bool(np.all(adapt_net.unit_table()[0][0, 0] == [0.5, 0.0])))

    rng = np.random.default_rng(42)
    reduction_ok = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        alpha0 = float(rng.uniform(0.05, 2.0))
        hyper = HyperParams(num_contexts=0, alpha=(alpha0,), n_max=4)
        w = rng.normal(size=(2, dim))
        net = init_growing(dim, hyper, (w[0], w[1]))
        x = rng.normal(size=dim)
        expected = alpha0 * float(np.sum((x - w[0]) ** 2))
        if math.isclose(net.distance(0, x), expected, rel_tol=REL, abs_tol=1e-15):
            reduction_ok += 1
    elapsed = time.perf_counter() - start
    ok = all(checks) and reduction_ok == 1000 and elapsed < 1.0
    report(
        "criterion 1 (equation unit suite)",
        ok,
        f"{sum(checks)}/{len(checks)} hand-derived, {reduction_ok}/1000 depth-0 reductions, {elapsed:.2f}s",
    )
    assert all(checks)
    assert reduction_ok == 1000
    assert elapsed < 1.0


# -- criterion 2: BMU and RNAT oracles -------------------------------------------


def _oracle_bmu(units, alpha, query):
    best = second = None
    best_d = second_d = math.inf
    for j in range(units.shape[0]):
        d = 0.0
        for k in range(units.shape[1]):
            d += alpha[k] * float(np.sum((query[k] - units[j, k]) ** 2))
        if d < best_d:
            second, second_d = best, best_d
            best, best_d = j, d
        elif d < second_d:
            second, second_d = j, d
    return best, second


def _oracle_walk(pairs, ids, source, hops):
    walk = [source]
    for _ in range(hops):
        tail = walk[-1]
        best, best_count = None, 0
        for n in sorted(ids):
            if n == tail:
                continue
            c = pairs.get((n, tail), 0)
            if c > best_count:
                best, best_count = n, c
        if best is None:
            break
        walk.append(best)
    return walk


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    bmu_ok = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(0, 3))
        alpha = tuple(rng.uniform(0.05, 1.0, size=k + 1))
        n = int(rng.integers(2, 51))
        hyper = HyperParams(num_contexts=k, alpha=alpha, n_max=max(n, 2))
        units, habs = np.empty((n, k + 1, dim)), np.empty(n)
        for row in range(n):
            units[row, 0] = rng.normal(size=dim)
            units[row, 1:] = rng.normal(size=(k, dim))
            habs[row] = rng.uniform(0, 1)
        net = Network(hyper, GROWING, units, habs)
        # random rows give a random context through a random previous winner
        net.prev_bmu = int(rng.integers(n))
        x = rng.normal(size=dim)
        b, s, _ = net.find_bmu(x)
        query = np.concatenate((x[None], net.global_context), axis=0)
        if (b, s) == _oracle_bmu(net.unit_table()[0], alpha, query):
            bmu_ok += 1

    rnat_ok = 0
    for _ in range(1000):
        n = int(rng.integers(2, 15))
        k = int(rng.integers(0, 3))
        alpha = tuple([1.0] + [0.1] * k)
        hyper = HyperParams(num_contexts=k, alpha=alpha, n_max=max(n, 2))
        units = np.empty((n, k + 1, 3))
        for unit in units:
            unit[0] = rng.normal(size=3)
            unit[1:] = rng.normal(size=(k, 3))
        pairs = {}
        for _ in range(int(rng.integers(0, 60))):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            pairs[(i, j)] = pairs.get((i, j), 0) + 1
        rows = [(i, j, count) for (i, j), count in pairs.items()]
        net = Network(hyper, GROWING, units, transitions=rows)
        source = int(rng.integers(0, n))
        rnat = generate_rnat(net, source)
        if rnat.ids == _oracle_walk(pairs, range(n), source, k + 1):
            rnat_ok += 1
    elapsed = time.perf_counter() - start
    ok = bmu_ok == 1000 and rnat_ok == 1000 and elapsed < 10.0
    report(
        "criterion 2 (BMU + RNAT oracle equivalence)",
        ok,
        f"bmu {bmu_ok}/1000, rnat {rnat_ok}/1000, {elapsed:.2f}s",
    )
    assert bmu_ok == 1000
    assert rnat_ok == 1000
    assert elapsed < 10.0


# -- criterion 3: habituation dynamics --------------------------------------------


def test_criterion_3_habituation_dynamics():
    kappa = 1.05
    floor = 1.0 - 1.0 / kappa
    ok = True
    details = []
    for tau in (0.1, 0.3):
        h = 1.0
        for _ in range(2000):
            nxt = habituate(h, tau, kappa)
            # strict decrease applies until the iterate sits on the float
            # fixed point, which is within one ulp of the closed form
            if h - floor > 1e-12 and not nxt < h:
                ok = False
            if nxt <= floor - 1e-12:
                ok = False
            h = nxt
        details.append(f"tau={tau}: |h-floor|={abs(h - floor):.2e}")
        if abs(h - floor) >= 1e-6:
            ok = False
    report("criterion 3 (habituation dynamics)", ok, "; ".join(details))
    assert ok


# -- criteria 4 and 8: gating and non-interference ---------------------------------


def test_criterion_4_capacity_and_gating(gating_audit):
    audit = gating_audit
    ok = (
        audit["capacity_violations"] == 0
        and audit["gate_violations"] == 0
        and audit["static_insertions"] == 0
    )
    report(
        "criterion 4 (capacity and gating, 100 runs)",
        ok,
        f"{audit['steps']} steps, {audit['insertions']} insertions, "
        f"{audit['capacity_violations']} capacity / {audit['gate_violations']} gate "
        f"/ {audit['static_insertions']} static-insert violations",
    )
    assert audit["capacity_violations"] == 0
    assert audit["gate_violations"] == 0
    assert audit["static_insertions"] == 0


def test_criterion_8_insertion_non_interference(gating_audit):
    audit = gating_audit
    ok = audit["interference_violations"] == 0 and audit["insertions"] > 0
    report(
        "criterion 8 (insertion non-interference)",
        ok,
        f"{audit['insertions']} insertions, {audit['interference_violations']} bitwise changes",
    )
    assert audit["insertions"] > 0
    assert audit["interference_violations"] == 0


# -- criteria 5 and 6: incremental comparisons --------------------------------------


def test_criterion_5_incremental_gap(incremental_runs):
    growing, t_growing = incremental_runs[("growing", False)]
    static, t_static = incremental_runs[("static", False)]
    gap = float(growing.mean() - static.mean())
    elapsed = t_growing + t_static
    ok = gap >= 0.15 and elapsed < 300.0
    report(
        "criterion 5 (incremental gap)",
        ok,
        f"growing {growing.mean():.4f} vs static {static.mean():.4f}, "
        f"gap {100 * gap:.1f} pts (need >= 15), {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert gap >= 0.15


def test_criterion_6a_replay_benefit_growing(incremental_runs):
    plain, _ = incremental_runs[("growing", False)]
    with_replay, _ = incremental_runs[("growing", True)]
    delta = float(with_replay.mean() - plain.mean())
    ok = delta >= 0.03
    report(
        "criterion 6a (growing replay benefit)",
        ok,
        f"replay {with_replay.mean():.4f} vs plain {plain.mean():.4f}, "
        f"delta {100 * delta:+.2f} pts (need >= +3); known-unattainable at this "
        f"scale, see module docstring",
    )
    assert delta >= 0.03


def test_criterion_6b_replay_insignificant_for_static(incremental_runs):
    plain, _ = incremental_runs[("static", False)]
    with_replay, _ = incremental_runs[("static", True)]
    delta = float(with_replay.mean() - plain.mean())
    ok = abs(delta) < 0.03
    report(
        "criterion 6b (static replay insignificance)",
        ok,
        f"replay {with_replay.mean():.4f} vs plain {plain.mean():.4f}, "
        f"|delta| {100 * abs(delta):.2f} pts (need < 3)",
    )
    assert abs(delta) < 0.03


# -- criterion 7: batch epochs to criterion -------------------------------------------


def test_criterion_7_epochs_to_criterion(batch_epochs_to_criterion):
    growing = float(np.median(batch_epochs_to_criterion["growing"]))
    static = float(np.median(batch_epochs_to_criterion["static"]))
    ok = static >= 1.5 * growing
    report(
        "criterion 7 (batch epochs to 95% of final)",
        ok,
        f"static median {static} vs growing median {growing} "
        f"(per-seed {batch_epochs_to_criterion['static']} vs "
        f"{batch_epochs_to_criterion['growing']}, need ratio >= 1.5)",
    )
    assert static >= 1.5 * growing


# -- criterion 9: end-to-end determinism ----------------------------------------------


def test_criterion_9_run_determinism(tmp_path):
    data = tmp_path / "data.csv"
    assert (
        main(
            [
                "gen-data", "--categories", "4", "--instances", "2", "--sessions", "4",
                "--dim", "8", "--frames", "6", "--seed", "5", "--out", str(data),
            ]
        )
        == 0
    )
    base = [
        "run", "--protocol", "incremental", "--mode", "growing", "--replay",
        "--nmax", "40", "--trials", "4", "--seed", "9", "--test-sessions", "2",
        "--data", str(data), "--snapshot",
    ]
    outs = {}
    for name, extra in (
        ("serial_a", []),
        ("serial_b", []),
        ("parallel", ["--parallel-trials", "4"]),
    ):
        out = tmp_path / name
        assert main(base + ["--out", str(out)] + extra) == 0
        snaps = sorted((out / "snapshots").iterdir())
        outs[name] = (
            (out / "metrics.csv").read_bytes(),
            [p.read_bytes() for p in snaps],
        )
    ok = outs["serial_a"] == outs["serial_b"] == outs["parallel"]
    report(
        "criterion 9 (byte-identical reruns incl. parallel)",
        ok,
        f"metrics {len(outs['serial_a'][0])} bytes, {len(outs['serial_a'][1])} snapshots",
    )
    assert outs["serial_a"] == outs["serial_b"]
    assert outs["serial_a"] == outs["parallel"]


# -- criterion 10: snapshot round trip --------------------------------------------------


def test_criterion_10_snapshot_round_trip():
    rng = np.random.default_rng(3)
    stream = rng.normal(size=(140, 4)) * 2
    hyper = HyperParams(n_max=15)
    net = init_growing(4, hyper, (stream[0], stream[1]))
    labels = LabelAssociations()

    def drive(network, lab, frames, offset):
        for i, x in enumerate(frames, start=offset):
            if i % 11 == 0:
                network.reset_context()
            lab.record(network.step(x).credited, f"obj{i % 4}")

    drive(net, labels, stream[:70], 0)
    mid = save_snapshot(net, labels)
    reloaded = load_snapshot(mid)
    round_trip_ok = save_snapshot(*reloaded) == mid

    net2, lab2 = reloaded
    drive(net, labels, stream[70:], 70)
    drive(net2, lab2, stream[70:], 70)
    continuation_ok = save_snapshot(net2, lab2) == save_snapshot(net, labels)
    ok = round_trip_ok and continuation_ok
    report(
        "criterion 10 (snapshot round trip + continuation)",
        ok,
        f"round-trip {'ok' if round_trip_ok else 'differs'}, "
        f"continuation {'ok' if continuation_ok else 'differs'}",
    )
    assert round_trip_ok
    assert continuation_ok
