#!/usr/bin/env python3
"""Concurrent multi-task benchmark: shared-subspace learners vs independence.

Runs the three multi-task algorithms on identical instance streams
(paired seeds) for each representation dimension and prints mean final
regrets with standard errors.  Pass an output directory to also get
plot-ready curves CSVs and a comparison.json.

Usage: python demos/multitask_regret.py [out_dir]
"""

import sys

from lowrank_bandits import ExperimentConfig, compare

OUT_DIR = sys.argv[1] if len(sys.argv) > 1 else None
N_SEEDS = 10  # bump to 20+ for smoother numbers

for rep_dim in (2, 3, 4):
    configs = [
        ExperimentConfig(
            algorithm=algo,
            dim=10,
            rep_dim=rep_dim,
            num_tasks=50,
            horizon=10_000,
            noise_std=1.0,
            num_seeds=N_SEEDS,
            master_seed=rep_dim,
            trace_stride=100,
            out_dir=None if OUT_DIR is None else f"{OUT_DIR}/k{rep_dim}",
        )
        for algo in ("mtrl", "e2tc", "independent")
    ]
    table, written = compare(configs)
    print(f"--- k = {rep_dim} ---")
    for summary in table["summaries"]:
        final = summary["final_regret"]
        print(
            f"  {summary['algorithm']:>12}: mean={final['mean']:>9.0f} "
            f"se={final['se']:>7.0f}"
        )
    for path in written:
        print(f"  wrote {path}")
