#!/usr/bin/env python3
"""Rectangular vs squared-covariance subspace estimation, head to head.

Both estimators see the exact same exploration samples.  The rectangular
path stacks per-task moment estimates and takes top-k left singular
vectors; the squared path pools everything into a reward-squared weighted
covariance matrix and takes top-k eigenvectors.  Median sin-theta errors
are printed for a range of stage-1 budgets.
"""

import numpy as np

from lowrank_bandits import InstanceSpec, RegretLedger, generate_instance
from lowrank_bandits.baselines import e2tc_squared_estimator
from lowrank_bandits.linalg import subspace_distance, top_k_left_singular_vectors
from lowrank_bandits.mtrl import collect_stage1_samples, moment_theta_matrix

DIM, REP_DIM, NUM_TASKS = 10, 2, 25
BUDGETS = (100, 283, 800, 2400)
N_SEEDS = 30

print(f"d={DIM} k={REP_DIM} M={NUM_TASKS}, medians over {N_SEEDS} paired seeds")
print(f"{'t1':>6} {'rectangular':>12} {'squared':>12}")
for t1 in BUDGETS:
    rect_errors, squared_errors = [], []
    for seed in range(N_SEEDS):
        spec = InstanceSpec(DIM, REP_DIM, NUM_TASKS, horizon=100_000, seed=seed)
        instance = generate_instance(spec)
        ledger = RegretLedger(NUM_TASKS, 0)
        batches = []  # both estimators see the same samples: keep every batch
        collect_stage1_samples(
            instance, t1, np.random.default_rng(500 + seed), ledger,
            lambda task, *batch: batches.append(batch),
        )
        actions, rewards = (np.stack(parts) for parts in zip(*batches))
        rect = top_k_left_singular_vectors(
            moment_theta_matrix(actions, rewards), REP_DIM
        )
        squared = e2tc_squared_estimator(actions, rewards, DIM, REP_DIM)
        rect_errors.append(subspace_distance(rect, instance.basis))
        squared_errors.append(subspace_distance(squared, instance.basis))
    print(
        f"{t1:>6} {np.median(rect_errors):>12.4f} {np.median(squared_errors):>12.4f}"
    )
print()
print("squaring the rewards buries the low-rank signal in variance; the")
print("rectangular stack concentrates much faster at every budget above.")
