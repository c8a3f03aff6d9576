#!/usr/bin/env python3
"""Sequential tasks: how the lifelong learner's regret falls task by task.

Early tasks pay for building the shared basis (the coordinate-wise
re-estimation is expensive); once the basis covers the representation,
each new task needs only a cheap in-span exploration before committing.
The independent baseline pays the same price for every task.

Usage: python demos/lifelong_learning.py [out_dir]
"""

import sys

import numpy as np

from lowrank_bandits import (
    InstanceSpec,
    generate_instance,
    run_independent_etc,
    run_lll,
)

OUT_DIR = sys.argv[1] if len(sys.argv) > 1 else None
N_SEEDS = 10
NUM_TASKS = 50

lll_curves = []
independent_totals = []
for seed in range(N_SEEDS):
    spec = InstanceSpec(dim=10, rep_dim=2, num_tasks=NUM_TASKS, horizon=10_000, seed=seed)
    instance = generate_instance(spec)
    _, state = run_lll(instance, np.random.default_rng(1000 + seed), mode="regret")
    lll_curves.append(state.per_task_regret)
    baseline, _ = run_independent_etc(instance, np.random.default_rng(1000 + seed))
    independent_totals.append(baseline.total)

per_task = np.vstack(lll_curves).mean(axis=0)
independent_per_task = np.mean(independent_totals) / NUM_TASKS

print(f"mean per-task regret over {N_SEEDS} seeds (independent baseline: "
      f"{independent_per_task:.0f} for every task)")
for start in range(0, NUM_TASKS, 10):
    chunk = per_task[start : start + 10]
    bars = " ".join(f"{value:6.0f}" for value in chunk)
    print(f"  tasks {start + 1:>2}-{start + 10:>2}: {bars}")
print(f"  first 25 tasks: {per_task[:25].mean():.0f}   last 25 tasks: {per_task[25:].mean():.0f}")

if OUT_DIR is not None:
    import csv
    import pathlib

    out = pathlib.Path(OUT_DIR)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "lifelong_per_task_mean.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["task", "mean_regret", "independent_mean_regret"])
        for task, value in enumerate(per_task):
            writer.writerow([task, f"{value:.6f}", f"{independent_per_task:.6f}"])
    print(f"wrote {path}")
