"""Benchmark of gwrnet trials: one workload per process, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload incr-growing-replay --seed 3 --seconds 60 --trace 0

The workload seed drives both the data seed and ``ProtocolSpec.seed``. One
measured unit is a single trial through the public API (``run_protocol``, or
``cli.main(["run", ...])`` for the CSV workload) followed by snapshot round
trips of the trained model. Units repeat trial 0 of the same spec, so every
unit must produce the same ``metrics.csv`` and snapshot bytes; both are also
compared with the digests in ``references.json`` where that file holds the
(workload, seed) pair. Seed 101 is held out: use it only to confirm a claim.

``--trace 0`` times with nothing patched and reports the end-to-end metrics.
Set-up runs twice before the first trial and once after every unit, so that
its samples, like the trials and round trips, spread over the whole run.
``setup_s`` is the median of the set-ups. ``trial_s`` and
``snapshot_roundtrip_s`` are means: on a shared host the program runs at two
speeds about 1.7x apart as the host's load changes over seconds to minutes,
so the median of a run's samples jumps between the speeds while the mean
moves in proportion to the time the run spent at each. Over ten runs the
mean spread less than the median for round trips and, on most sets, trials.
``--trace 1`` alternates traced and untraced units and reports per-layer
metrics from the traced ones (see ``tracing.py``), plus the tracing overhead.
Everything before the last line of standard output is a human-readable
report; the last line is the result object.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
if not (ROOT / "src" / "gwrnet" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gwrnet sources under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gwrnet import cli, datasets, protocols, snapshot  # noqa: E402
from gwrnet.datasets import SyntheticSpec  # noqa: E402
from gwrnet.model import GROWING, STATIC  # noqa: E402
from gwrnet.protocols import BATCH, INCREMENTAL, ProtocolSpec  # noqa: E402

import tracing  # noqa: E402

TEST_SESSIONS = (3, 7, 10)
HELD_OUT_SEED = 101
# set-up runs this many times before the first trial and, in runs without
# tracing, once more after every unit, so that its samples span the whole run
SETUP_FIRST_REPEATS = 2
MIN_UNITS = 3  # untraced units; a traced run needs two traced and one untraced
# past the deadline, stop collecting minimum samples after this long, so that
# a run whose units keep failing still exits well within its time limit
GIVE_UP_AFTER_S = 90
# snapshot round trips after each trial repeat until there are this many and,
# in runs without tracing, they add up to this share of the trial's time
ROUNDTRIPS_PER_UNIT = 3
ROUNDTRIP_SHARE = 0.3
REFERENCES = HERE / "references.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    mode: str
    replay: bool
    n_max: int
    epochs: int
    via_cli: bool
    data: SyntheticSpec = field(default_factory=SyntheticSpec)

    def spec(self, seed: int) -> ProtocolSpec:
        return ProtocolSpec(
            kind=self.kind,
            mode=self.mode,
            replay=self.replay,
            n_max=self.n_max,
            epochs=self.epochs,
            trials=1,
            seed=seed,
            test_sessions=TEST_SESSIONS,
        )

    def predicted_spans(self) -> set[str]:
        """Traced names this workload must reach; every other one is bypassed."""
        used = {
            "model.match",
            "model.step",
            "model.find_bmu",
            "model.adapt",
            "model.maybe_insert",
            "labeling.classify_sample",
            "labeling.predict",
            "protocols.evaluate",
            "protocols.run_protocol",
            "snapshot.save_snapshot",
            "snapshot.load_snapshot",
            "datasets.split_by_sessions",
        }
        if self.replay:
            used |= {"model.replay_step", "replay.replay_episode", "replay.generate_rnat"}
        if self.via_cli:
            used |= {"cli.main", "datasets.load_features"}
        else:
            used.add("datasets.generate_synthetic")
        return used


# cli-batch-static-2500 keeps 5 of the 10 default categories: a 3-epoch trial
# then takes about 5-7 s, and its final accuracy varies by under 5% across
# seeds (at 10 categories, by 13%). It runs through ``cli.main`` on a feature
# CSV, so it also covers CSV parsing, output files and the --snapshot path.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("incr-growing-replay", INCREMENTAL, GROWING, True, 300, 0, False),
        Workload(
            "cli-batch-static-2500", BATCH, STATIC, False, 2500, 3, True,
            SyntheticSpec(categories=5),
        ),
    )
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _final_acc(metrics_csv: bytes) -> float:
    rows = list(csv.DictReader(io.StringIO(metrics_csv.decode("utf-8"))))
    final = max(int(r["checkpoint"]) for r in rows)
    finals = [float(r["acc_overall"]) for r in rows if int(r["checkpoint"]) == final]
    return sum(finals) / len(finals)


class Bench:
    """One workload at one seed: inputs, set-up, units and their checks."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, reference):
        self.w = workload
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.csv_path = work_dir / "features.csv"
        self.dataset = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.mismatches = 0
        self.digests: tuple[str, str] | None = None
        self.final_acc: float | None = None

    def prepare(self) -> None:
        """Write the CSV the CLI workload reads; not part of any timing."""
        if self.w.via_cli:
            datasets.write_features(datasets.generate_synthetic(self.w.data, self.seed), self.csv_path)

    def setup(self) -> float:
        gc.collect()
        start = time.perf_counter()
        if self.w.via_cli:
            dataset = datasets.load_features(self.csv_path)
        else:
            dataset = datasets.generate_synthetic(self.w.data, self.seed)
        datasets.split_by_sessions(dataset, TEST_SESSIONS)
        elapsed = time.perf_counter() - start
        self.dataset = dataset
        return elapsed

    def _trial(self) -> tuple[float, bytes, str]:
        """Run one trial; returns (seconds, metrics.csv bytes, snapshot text)."""
        if not self.w.via_cli:
            start = time.perf_counter()
            result = protocols.run_protocol(
                self.w.spec(self.seed), self.dataset, workers=1, with_snapshots=True
            )
            elapsed = time.perf_counter() - start
            metrics_path = self.work_dir / "metrics.csv"
            protocols.write_metrics_csv(result.records, metrics_path)
            return elapsed, metrics_path.read_bytes(), result.snapshots[0]
        out = self.work_dir / "run"
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "run", "--data", str(self.csv_path), "--out", str(out),
            "--protocol", self.w.kind, "--mode", self.w.mode,
            "--nmax", str(self.w.n_max), "--epochs", str(self.w.epochs),
            "--trials", "1", "--seed", str(self.seed),
            "--test-sessions", ",".join(map(str, TEST_SESSIONS)),
            "--parallel-trials", "1", "--snapshot",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"gwrnet run exited with {code}")
        snap = (out / "snapshots" / "trial_000.json").read_text(encoding="utf-8")
        return elapsed, (out / "metrics.csv").read_bytes(), snap

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def unit(self, roundtrip_share: float = 0.0) -> tuple[float | None, list[float]]:
        """One trial plus snapshot round trips of its model, all checked.

        Round trips repeat until there are ``ROUNDTRIPS_PER_UNIT`` of them and
        they add up to ``roundtrip_share`` of the trial's time. Returns the
        trial seconds (None if it raised) and the round-trip seconds; garbage
        left by earlier work is collected outside the timing.
        """
        self.attempted += 1
        gc.collect()
        try:
            trial_s, metrics_csv, snap = self._trial()
        except Exception as exc:  # a failed trial is counted, not fatal
            self._fail(f"trial raised {type(exc).__name__}: {exc}")
            return None, []
        digests = (_sha256(metrics_csv), _sha256(snap.encode("utf-8")))
        expected = self.digests
        if self.reference is not None:
            expected = (self.reference["metrics_sha256"], self.reference["snapshot_sha256"])
        if expected is not None and digests != expected:
            self.mismatches += 1
            self._fail(f"trial output digests {digests} differ from {expected}")
        self.digests = self.digests or digests
        self.final_acc = _final_acc(metrics_csv)

        roundtrips: list[float] = []
        while len(roundtrips) < ROUNDTRIPS_PER_UNIT or sum(roundtrips) < roundtrip_share * trial_s:
            self.attempted += 1
            gc.collect()
            try:
                start = time.perf_counter()
                again = snapshot.save_snapshot(*snapshot.load_snapshot(snap))
                roundtrips.append(time.perf_counter() - start)
            except Exception as exc:
                self._fail(f"snapshot round trip raised {type(exc).__name__}: {exc}")
                break
            if again != snap:
                self._fail("snapshot does not round-trip byte for byte")
                break
        return trial_s, roundtrips


def _run_units(bench: Bench, seconds: float, tracer=None):
    """Repeat units for about ``seconds``; with a tracer, alternate traced ones.

    Without a tracer, each unit ends with one more set-up. Returns (untraced
    trial s, round-trip s, set-up s, traced trial s, folds, counts).
    """
    untraced, roundtrips, setups, traced, folds, counts = [], [], [], [], [], []
    unit_s: list[float] = []
    deadline = time.perf_counter() + seconds
    give_up = deadline + GIVE_UP_AFTER_S
    index = 0
    while True:
        on = tracer is not None and index % 2 == 0
        if on:
            tracer.install()
        start = time.perf_counter()
        try:
            # the units of a traced run keep a fixed number of round trips,
            # so that every span count repeats across the traced ones
            trial_s, unit_roundtrips = bench.unit(0.0 if tracer else ROUNDTRIP_SHARE)
            if tracer is None:
                setups.append(bench.setup())
        finally:
            if on:
                tracer.uninstall()
        unit_s.append(time.perf_counter() - start)
        if on:
            spans, unit_counts = tracer.take()
            if trial_s is not None:
                traced.append(trial_s)
                folds.append(tracing.fold(spans))
                counts.append(unit_counts)
        else:
            if trial_s is not None:
                untraced.append(trial_s)
            roundtrips += unit_roundtrips
        index += 1
        enough = len(untraced) >= (1 if tracer else MIN_UNITS) and (tracer is None or len(traced) >= 2)
        now = time.perf_counter()
        if now + statistics.median(unit_s) > deadline and (enough or not (untraced or traced)):
            break
        if now > give_up:
            break
    return untraced, roundtrips, setups, traced, folds, counts


def _quartiles(values: list[float]) -> str:
    low, mid, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"min {min(values):.4f} q1 {low:.4f} median {mid:.4f} q3 {high:.4f} max {max(values):.4f}"


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gwrnet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def _reference_status(reference, mismatches: int) -> str:
    if reference is None:
        return "unverified (no entry for this seed in references.json)"
    return f"failed on {mismatches} trials" if mismatches else "passed"


def load_reference(workload: str, seed: int):
    if not REFERENCES.is_file():
        return None
    doc = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return doc.get("workloads", {}).get(workload, {}).get(str(seed))


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    reference = load_reference(workload.name, seed)
    bench = Bench(workload, seed, work_dir, reference)
    bench.prepare()
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_s: list[float] = []
    try:
        while len(setup_s) < SETUP_FIRST_REPEATS:
            setup_s.append(bench.setup())
    finally:
        if tracer:
            tracer.uninstall()
    setup_fold, setup_counts = ({}, None)
    if tracer:
        spans, setup_counts = tracer.take()
        setup_fold = tracing.fold(spans)

    untraced, roundtrips, setups, traced, folds, counts = _run_units(bench, seconds, tracer)
    setup_s += setups
    if not (untraced or traced):
        raise SystemExit(f"perfbench: every trial failed: {bench.problems[:3]}")

    report = [
        f"perfbench workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}",
        "provenance " + json.dumps(provenance(), sort_keys=True),
        f"reference check {_reference_status(reference, bench.mismatches)}: metrics.csv sha256 "
        f"{bench.digests[0] if bench.digests else None}, snapshot sha256 "
        f"{bench.digests[1] if bench.digests else None}",
        f"failed_ratio {bench.failed / bench.attempted} ratio "
        f"({bench.failed} of {bench.attempted} trials and round trips failed)",
    ]
    correct = bench.failed == 0
    if trace:
        problems = tracing.self_check(
            workload.predicted_spans(), setup_fold, folds, counts, workload.mode == GROWING
        )
        if reference is not None:
            for name in tracing.RETURN_COUNTS:
                values = {c[name] for c in counts}
                if values != {reference["counts"][name]}:
                    problems.append(f"{name} {sorted(values)} != reference {reference['counts'][name]}")
        report += [f"self-check: {p}" for p in problems] or ["self-check: ok"]
        correct = correct and not problems
        metrics = tracing.per_layer_metrics(setup_fold, setup_counts, folds, counts, traced, untraced)
        report.append(
            f"traced units {len(traced)}, untraced units {len(untraced)}; exact counts "
            + json.dumps({n: counts[0][n] for n in tracing.EXACT_COUNTS} if counts else {})
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "trial_s": (statistics.fmean(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "snapshot_roundtrip_s": (statistics.fmean(roundtrips), "s"),
            "final_acc": (bench.final_acc, "ratio"),
        }
        report += [
            f"trial_s mean of {len(untraced)} trials (a p90 needs at least 100): "
            f"{_quartiles(untraced)}; " + " ".join(f"{t:.4f}" for t in untraced),
            f"snapshot_roundtrip_s mean of {len(roundtrips)} round trips: {_quartiles(roundtrips)}",
            f"setup_s median of {len(setup_s)} set-ups: {_quartiles(setup_s)}",
        ]
    report += [f"  {problem}" for problem in bench.problems[:10]]
    report += [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
    return {
        "report": report,
        "result": {
            "correct": correct,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def reference_entry(workload: Workload, seed: int, work_dir: Path) -> dict:
    """Digests and exact counts of one traced unit, for ``references.json``."""
    bench = Bench(workload, seed, work_dir, None)
    bench.prepare()
    bench.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trial_s, _ = bench.unit()
    finally:
        tracer.uninstall()
    if bench.failed or trial_s is None:
        raise RuntimeError(f"{workload.name} seed {seed}: {bench.problems}")
    _, counts = tracer.take()
    return {
        "metrics_sha256": bench.digests[0],
        "snapshot_sha256": bench.digests[1],
        "final_acc": bench.final_acc,
        "counts": {name: counts[name] for name in tracing.RETURN_COUNTS},
    }


def work_dir_for(label: str) -> Path:
    path = ROOT / ".perfbench_tmp" / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    work_dir = work_dir_for(args.workload)
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
