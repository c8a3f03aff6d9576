"""The benchmark's workloads: fixed instance shapes, replicate counts and runners.

Every workload uses ``noise_std=1``.  Its inputs are a function of the
master seed alone: replicate ``i`` gets the harness's seed streams
``(seed, i, 0)`` and ``(seed, i, 1)``.  See ``README.md`` beside this file
for why each workload exists and which layers it stresses.

The package is imported inside the methods: ``run.py`` loads this module
without ``src`` on its path, and only its trial processes import the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

LLL_EPSILON = 0.1  # pure-exploration accuracy target
LLL_DELTA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" (desk), "compare" or "lifelong"
    algorithms: tuple[str, ...]
    dim: int
    rep_dim: int
    num_tasks: int
    horizon: int
    replicates: int
    reps_per_trial: int  # runs of the workload per fresh process
    trace_stride: int = 10

    def generate_instances(self, seed: int) -> list:
        """The instances the run will use, drawn with the public ``generate_instance``."""
        import numpy as np

        from lowrank_bandits import InstanceSpec, generate_instance
        from lowrank_bandits.harness import replicate_seed_sequences

        spec = InstanceSpec(
            dim=self.dim,
            rep_dim=self.rep_dim,
            num_tasks=self.num_tasks,
            horizon=self.horizon,
            noise_std=1.0,
            seed=None,
        )
        return [
            generate_instance(spec, np.random.default_rng(replicate_seed_sequences(seed, i)[0]))
            for i in range(self.replicates)
        ]

    def configs(self, seed: int) -> list:
        from lowrank_bandits import ExperimentConfig

        base = ExperimentConfig(
            dim=self.dim,
            rep_dim=self.rep_dim,
            num_tasks=self.num_tasks,
            horizon=self.horizon,
            noise_std=1.0,
            num_seeds=self.replicates,
            master_seed=seed,
            trace_stride=self.trace_stride,
        )
        if self.kind == "lifelong":
            return [
                replace(base, algorithm="lll", mode="regret", delta=LLL_DELTA),
                replace(
                    base,
                    algorithm="lll",
                    mode="pure_exploration",
                    epsilon=LLL_EPSILON,
                    delta=LLL_DELTA,
                ),
            ]
        return [replace(base, algorithm=algo) for algo in self.algorithms]

    def run(self, seed: int, out_dir: Path) -> None:
        """Run the workload once, the way its users run it."""
        from lowrank_bandits import harness

        if self.kind == "cli":
            from lowrank_bandits.cli import main

            argv = [
                "compare",
                "--algorithms", ",".join(self.algorithms),
                "--d", str(self.dim),
                "--k", str(self.rep_dim),
                "--M", str(self.num_tasks),
                "--T", str(self.horizon),
                "--noise-std", "1",
                "--seeds", str(self.replicates),
                "--master-seed", str(seed),
                "--out-dir", str(out_dir),
            ]
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"lowrank-bandits compare exited with {code}")
        elif self.kind == "compare":
            harness.compare(self.configs(seed))
        else:
            for config in self.configs(seed):
                harness.run_experiment(config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "cli", ("mtrl", "e2tc", "independent"), 10, 2, 50, 10_000, 2, 1),
        Workload("scale", "compare", ("mtrl", "independent"), 10, 2, 200, 100_000, 2, 1, 1000),
        Workload("highdim", "compare", ("mtrl", "e2tc", "independent"), 50, 5, 20, 10_000, 2, 2),
        Workload("lifelong", "lifelong", ("lll",), 10, 4, 200, 10_000, 4, 4),
    )
}

# Shapes for the smoke test only: same code paths, a fraction of the work.
TINY = {
    "desk": dict(num_tasks=5, horizon=500),
    "scale": dict(num_tasks=10, horizon=5000, trace_stride=100),
    "highdim": dict(num_tasks=20, horizon=2000),
    "lifelong": dict(num_tasks=20, replicates=2),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload
