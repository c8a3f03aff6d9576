#!/usr/bin/env python3
"""Pure exploration: sample cost vs accuracy target for the lifelong learner.

In pure-exploration mode the learner stops each task once its coefficient
estimate is good enough; no commit phase, no horizon.  Sample totals are
expected to scale like 1/epsilon^2, and the realized estimation error
should land well inside the target.
"""

import numpy as np

from lowrank_bandits import InstanceSpec, generate_instance, run_lll

N_SEEDS = 10
print(f"{'epsilon':>8} {'mean samples':>14} {'max error':>10} {'within eps':>11} {'width':>6}")
for epsilon in (0.2, 0.1, 0.05, 0.025):
    totals, worst, hits, pairs, widths = [], 0.0, 0, 0, []
    for seed in range(N_SEEDS):
        spec = InstanceSpec(dim=10, rep_dim=2, num_tasks=50, horizon=10_000, seed=seed)
        instance = generate_instance(spec)
        state, _, sample_total = run_lll(
            instance,
            np.random.default_rng(2000 + seed),
            mode="pure_exploration",
            epsilon=epsilon,
            delta=0.05,
        )
        errors = np.linalg.norm(state.theta_hats - instance.thetas, axis=0)
        totals.append(sample_total)
        worst = max(worst, float(errors.max()))
        hits += int((errors <= epsilon).sum())
        pairs += instance.num_tasks
        widths.append(state.width)
    print(
        f"{epsilon:>8} {np.mean(totals):>14.0f} {worst:>10.4f} "
        f"{hits / pairs:>11.3f} {max(widths):>6}"
    )
print()
print("halving epsilon multiplies the sample bill by ~4; the basis width")
print("settles at the representation dimension and stays there.")
