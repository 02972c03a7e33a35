"""Regenerate ``references.json``: output digests and exact counts per (workload, seed).

Run from the repository root on a commit whose outputs are the intended
reference, for example:

    python3 perfbench/make_references.py 0-15 101

Each entry comes from one traced trial plus its snapshot round trip. A program
change that alters ``metrics.csv`` or snapshot bytes makes every benchmark run
count its trials as failed until this file is regenerated.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        low, _, high = arg.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return sorted(set(seeds))


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv)
    if not seeds:
        sys.exit("usage: make_references.py SEED|LOW-HIGH ...")
    doc = {"held_out_seed": run.HELD_OUT_SEED, "workloads": {}}
    for name, workload in run.WORKLOADS.items():
        entries = doc["workloads"][name] = {}
        for seed in seeds:
            work_dir = run.work_dir_for(f"ref-{name}")
            try:
                entries[str(seed)] = run.reference_entry(workload, seed, work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
                work_dir.parent.rmdir()
            print(name, seed, entries[str(seed)]["final_acc"], flush=True)
    run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
