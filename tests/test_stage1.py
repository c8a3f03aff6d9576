"""Stage 1 streams: each task's batch is reduced and dropped.

mtrl and independent reduce a batch to its task's estimate, and e2tc adds it
to its squared-covariance sum.  The pins below were recorded while Stage 1
still kept the whole ``(num_tasks, t1, dim)`` action tensor; streaming must
reproduce them bit for bit.  The memory contract checks that no tensor of
that size is held, by any of the three runners.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from lowrank_bandits import baselines, mtrl
from lowrank_bandits.baselines import (
    CHUNK_ENTRIES,
    independent_exploration_budget,
    run_e2tc,
    run_independent_etc,
)
from lowrank_bandits.env import InstanceSpec, RegretLedger, generate_instance
from lowrank_bandits.errors import ConfigError
from lowrank_bandits.mtrl import resolve_budgets, run_mtrl

# (dim, rep_dim, num_tasks, horizon).  "ragged": t1 = 1813 is not a multiple
# of the ledger's 1771 steps per chunk, and Stage 1's 67,081 entries span two.
SHAPES = {"single_task": (4, 1, 1, 400), "ragged": (9, 3, 37, 500_000)}

RUNS = {
    "mtrl": (run_mtrl, 1.0, {}),
    "e2tc": (run_e2tc, 1.0, {}),
    "independent": (run_independent_etc, 1.0, {}),
    "mtrl_oracle": (run_mtrl, 0.0, {"noiseless_oracle": True}),
    "independent_oracle": (run_independent_etc, 0.0, {"noiseless_oracle": True}),
}

# Final regret ``float.hex()``, then for the three-stage runs the first 16
# hex digits of the sha256 of ``theta_hat_stage1`` and of ``basis_hat``.
PINS = {
    ("single_task", "mtrl"): ("0x1.66d03ac297016p+6", "0f673f226bc2d006", "79d48c817d49bad5"),
    ("single_task", "e2tc"): ("0x1.7c4f7269259ccp+7", None, "2b40e6b3eba75827"),
    ("single_task", "independent"): ("0x1.66d03ac297016p+6",),
    ("single_task", "mtrl_oracle"): ("0x1.48c7c818c2222p+6", "197e8e43391e1d4b", "e750cab360334489"),
    ("single_task", "independent_oracle"): ("0x1.48c7c818c2222p+6",),
    ("ragged", "mtrl"): ("0x1.75b87034a209cp+17", "a458bc0ed509c572", "a04cbaf45a839bd9"),
    ("ragged", "e2tc"): ("0x1.fae2d4d3c5946p+18", None, "c83f58833f179bc9"),
    ("ragged", "independent"): ("0x1.5d5c4a387314ap+18",),
    ("ragged", "mtrl_oracle"): ("0x1.271d232ad6444p+17", "fa52a8d4df3f2a16", "78fbfbc39ecd7766"),
    ("ragged", "independent_oracle"): ("0x1.cc4083f28d38dp+17",),
}


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("shape,name", sorted(PINS))
def test_pinned_outputs(shape, name):
    dim, rep_dim, num_tasks, horizon = SHAPES[shape]
    run, noise_std, options = RUNS[name]
    instance = generate_instance(InstanceSpec(dim, rep_dim, num_tasks, horizon, noise_std, 3))
    ledger, details = run(instance, np.random.default_rng(11), 0, **options)
    got = [float(ledger.total).hex()]
    if details is not None:
        theta_hat = details.theta_hat_stage1
        got += [None if theta_hat is None else digest(theta_hat), digest(details.basis_hat)]
    assert tuple(got) == PINS[shape, name]


# e2tc adds each batch to its squared-covariance sum through one reused chunk
# buffer (``baselines.CHUNK_ENTRIES`` entries), so it holds that buffer too.
@pytest.mark.parametrize(
    "run,shape,t1,chunk",
    [
        (run_independent_etc, (20, 2, 100, 20_000), independent_exploration_budget(20, 20_000), 0),
        (run_mtrl, (40, 2, 100, 50_000), resolve_budgets(40, 2, 100, 50_000)[0], 0),
        (run_e2tc, (40, 2, 100, 50_000), resolve_budgets(40, 2, 100, 50_000)[0], CHUNK_ENTRIES * 8),
    ],
    ids=["independent", "mtrl", "e2tc"],
)
def test_stage1_holds_one_batch_not_the_action_tensor(run, shape, t1, chunk):
    dim, rep_dim, num_tasks, horizon = shape
    tensor = num_tasks * t1 * dim * 8
    assert tensor >= 40e6  # the (num_tasks, t1, dim) actions Stage 1 does not keep
    instance = generate_instance(InstanceSpec(dim, rep_dim, num_tasks, horizon, 1.0, 0))
    tracemalloc.start()
    try:
        run(instance, np.random.default_rng(1), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    regrets, batch = num_tasks * t1 * 8, t1 * dim * 8
    # slack: the sphere draw's temporaries and the ledger's chunk buffers
    assert peak < regrets + batch + chunk + 2 * 2**20 < tensor / 8


class TestOracleBudgetBeforeSampling:
    """The noiseless oracle's ``t1 >= dim`` rule raises before any pull."""

    @staticmethod
    def spy_ledgers(monkeypatch, module):
        ledgers = []

        class Spy(RegretLedger):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                ledgers.append(self)

        monkeypatch.setattr(module, "RegretLedger", Spy)
        return ledgers

    @pytest.mark.parametrize(
        "module,run,shape,t1",
        [
            (mtrl, run_mtrl, (10, 1, 50, 40), 9),  # ceil(10 * sqrt(40 / 50)) = 9
            (baselines, run_independent_etc, (10, 1, 2, 10), 5),  # min(32, 10 // 2)
        ],
        ids=["mtrl", "independent"],
    )
    def test_raises_with_an_empty_ledger(self, monkeypatch, module, run, shape, t1):
        ledgers = self.spy_ledgers(monkeypatch, module)
        instance = generate_instance(InstanceSpec(*shape, noise_std=0.0, seed=1))
        rng = np.random.default_rng(2)
        message = f"noiseless_oracle: needs t1 >= dim, got t1={t1}, dim=10"
        with pytest.raises(ConfigError, match=message):
            run(instance, rng, 0, noiseless_oracle=True)
        assert len(ledgers) == 1 and ledgers[0].num_pulls == 0
        assert rng.bit_generator.state == np.random.default_rng(2).bit_generator.state
