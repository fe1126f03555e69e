"""Tests for native batch-ask proposals across every optimizer.

The contract (see ``Optimizer.ask_batch``): batch proposals are generated
under *deferred feedback* — no tells happen mid-batch — so for every built-in
optimizer ``ask_batch(n)`` must produce exactly what ``n`` repeated ``ask()``
calls produce from the same state.  The one intentional deviation is the
Bayesian optimizer, whose batch ranks the top-``n`` distinct candidates under
a single posterior instead of returning ``n`` copies of the argmax; that
deviation is pinned down here too.
"""

import hashlib

import numpy as np
import pytest

from repro.hardware.search_space import DatapathSearchSpace
from repro.runtime.batching import BatchedOptimizer, proposal_key
from repro.search import (
    BayesianOptimizer,
    RandomSearchOptimizer,
    TransferWarmStartOptimizer,
    make_optimizer,
)

SPACE = DatapathSearchSpace()

# Optimizers whose batch must equal repeated asks bit-for-bit (deferred tells).
EXACT_OPTIMIZERS = ["random", "lcs", "annealing", "coordinate", "safe:lcs"]
ALL_OPTIMIZERS = EXACT_OPTIMIZERS + ["bayesian"]


def _objective(params) -> float:
    """Deterministic synthetic objective (no simulator needed)."""
    return float(np.sum(SPACE.encode(params)))


def _warmed(name: str, seed: int = 0, num_warm: int = 30):
    """A freshly seeded optimizer with ``num_warm`` self-proposed tells."""
    optimizer = make_optimizer(name, SPACE, seed=seed)
    for _ in range(num_warm):
        params = optimizer.ask()
        optimizer.tell(params, _objective(params), feasible=True)
    return optimizer


def _in_space(params) -> bool:
    return all(params[spec.name] in spec.choices for spec in SPACE.specs)


# ---------------------------------------------------------------------------
class TestBatchProposalsInSpace:
    @pytest.mark.parametrize("name", ALL_OPTIMIZERS)
    def test_cold_batch_in_space(self, name):
        proposals = make_optimizer(name, SPACE, seed=1).ask_batch(6)
        assert len(proposals) == 6
        assert all(_in_space(p) for p in proposals)

    @pytest.mark.parametrize("name", ALL_OPTIMIZERS)
    def test_warm_batch_in_space(self, name):
        proposals = _warmed(name).ask_batch(6)
        assert len(proposals) == 6
        assert all(_in_space(p) for p in proposals)

    @pytest.mark.parametrize("name", ALL_OPTIMIZERS)
    def test_empty_and_negative_batches(self, name):
        optimizer = make_optimizer(name, SPACE, seed=1)
        assert optimizer.ask_batch(0) == []
        assert optimizer.ask_batch(-3) == []


# ---------------------------------------------------------------------------
class TestDeferredEquivalence:
    @pytest.mark.parametrize("name", EXACT_OPTIMIZERS)
    def test_batch_equals_repeated_asks(self, name):
        """Twin optimizers (same seed, same tells): one batch-asks, the other
        repeat-asks; the proposal sequences must be identical."""
        repeat = _warmed(name)
        batch = _warmed(name)
        expected = [repeat.ask() for _ in range(8)]
        assert [proposal_key(p) for p in batch.ask_batch(8)] == [
            proposal_key(p) for p in expected
        ]

    @pytest.mark.parametrize("name", EXACT_OPTIMIZERS)
    def test_batch_tell_trajectory_matches_repeated(self, name):
        """ask_batch + tells reproduces the best-objective trajectory of
        repeated ask + deferred tells for the same total budget."""
        repeat = _warmed(name)
        batch = _warmed(name)
        repeat_proposals = [repeat.ask() for _ in range(8)]
        batch_proposals = batch.ask_batch(8)
        for optimizer, proposals in ((repeat, repeat_proposals), (batch, batch_proposals)):
            for params in proposals:
                optimizer.tell(params, _objective(params), feasible=True)
        assert repeat.best_objective_curve() == batch.best_objective_curve()

    def test_random_matches_even_interleaved_tells(self):
        """Random search ignores feedback entirely, so its batch equals n
        interleaved ask/tell rounds, not just deferred asks."""
        interleaved = RandomSearchOptimizer(SPACE, seed=9)
        batched = RandomSearchOptimizer(SPACE, seed=9)
        expected = []
        for _ in range(10):
            params = interleaved.ask()
            interleaved.tell(params, _objective(params), feasible=True)
            expected.append(proposal_key(params))
        assert [proposal_key(p) for p in batched.ask_batch(10)] == expected

    def test_transfer_drains_warm_starts_first(self):
        rng = np.random.default_rng(123)
        priors = [SPACE.sample(rng) for _ in range(3)]
        optimizer = TransferWarmStartOptimizer(SPACE, seed=0, prior_params=priors)
        twin = TransferWarmStartOptimizer(SPACE, seed=0, prior_params=priors)
        batch = optimizer.ask_batch(5)
        assert [proposal_key(p) for p in batch[:3]] == [proposal_key(p) for p in priors]
        assert [proposal_key(p) for p in batch] == [
            proposal_key(twin.ask()) for _ in range(5)
        ]


# ---------------------------------------------------------------------------
class TestBayesianBatchDeviation:
    """The documented deviation: one posterior, top-n distinct EI candidates."""

    def test_warmup_phase_equals_repeated_asks(self):
        repeat = BayesianOptimizer(SPACE, seed=3)
        batch = BayesianOptimizer(SPACE, seed=3)
        expected = [repeat.ask() for _ in range(6)]  # still space-filling
        assert [proposal_key(p) for p in batch.ask_batch(6)] == [
            proposal_key(p) for p in expected
        ]

    def test_first_batch_proposal_is_the_single_ask(self):
        repeat = _warmed("bayesian")
        batch = _warmed("bayesian")
        assert proposal_key(batch.ask_batch(4)[0]) == proposal_key(repeat.ask())

    def test_batch_proposals_are_distinct(self):
        proposals = _warmed("bayesian").ask_batch(8)
        keys = [proposal_key(p) for p in proposals]
        assert len(set(keys)) == len(keys)

    def test_deviates_from_repeated_asks_after_warmup(self):
        """Repeated asks under deferred feedback return near-identical argmax
        points; the batch intentionally spreads over the EI ranking instead."""
        repeat = _warmed("bayesian")
        batch = _warmed("bayesian")
        repeated = [proposal_key(repeat.ask()) for _ in range(4)]
        batched = [proposal_key(p) for p in batch.ask_batch(4)]
        assert len(set(batched)) == 4
        assert len(set(repeated)) < 4 or repeated != batched


# ---------------------------------------------------------------------------
class TestBatchedOptimizerIntegration:
    def test_wrapper_prefers_native_batch(self):
        calls = []

        class Recording(RandomSearchOptimizer):
            def ask_batch(self, n):
                calls.append(n)
                return super().ask_batch(n)

        batched = BatchedOptimizer(Recording(SPACE, seed=0), SPACE)
        batched.ask_batch(5)
        assert calls == [5]

    def test_wrapper_deduplicates_native_batches(self):
        class StuckBatch(RandomSearchOptimizer):
            """Native batch proposing the same configuration n times."""

            def ask_batch(self, n):
                fixed = SPACE.sample(np.random.default_rng(7))
                return [dict(fixed) for _ in range(n)]

        batched = BatchedOptimizer(StuckBatch(SPACE, seed=0), SPACE)
        proposals = batched.ask_batch(5)
        keys = {proposal_key(p) for p in proposals}
        assert len(keys) == 5
        assert batched.num_duplicates_avoided > 0

    def test_wrapper_falls_back_for_duck_typed_optimizers(self):
        class AskOnly:
            """Duck-typed optimizer with no ask_batch at all."""

            def __init__(self):
                self.space = SPACE
                self.rng = np.random.default_rng(0)

            def ask(self):
                return self.space.sample(self.rng)

        batched = BatchedOptimizer(AskOnly(), SPACE)
        proposals = batched.ask_batch(4)
        assert len(proposals) == 4
        assert all(_in_space(p) for p in proposals)


# ---------------------------------------------------------------------------
def _pin_objective(params):
    """Synthetic objective with ties and an infeasible region, from choice indices."""
    indices = [spec.choices.index(params[spec.name]) for spec in SPACE.specs]
    objective = -float(sum(weight * index for weight, index in enumerate(indices, start=1)) // 16)
    feasible = params["systolic_array_x"] * params["systolic_array_y"] <= 4096
    return objective, feasible


def _proposal_digest(name: str, trials: int) -> str:
    """sha256 over the proposal keys of a seed-0 search run in batches of 8."""
    optimizer = make_optimizer(name, SPACE, seed=0)
    batched = BatchedOptimizer(optimizer)
    digest = hashlib.sha256()
    for _ in range(trials // 8):
        for params in batched.ask_batch(8):
            digest.update(proposal_key(params).encode() + b"\n")
            objective, feasible = _pin_objective(params)
            optimizer.tell(params, objective, feasible=feasible)
    return digest.hexdigest()


# Computed before the proposal path was rewritten around lookup tables, a kept
# elite and cached rank CDFs; every optimizer must keep proposing exactly this.
# LCS breeds from trial 25 on, so 96 trials pin 72 bred proposals; the
# Bayesian GP refit makes its trials the slowest, so it runs 32.
PROPOSAL_PINS = {
    "annealing": (96, "19e18db14996ce276e1d4e05de436ffad68baa0183b5ca3d229542a7a8f00a87"),
    "bayesian": (32, "4b9e12fff3f998492de2bec5683456651f572d9ce97735b01b35702d569bd19d"),
    "coordinate": (96, "b6a24665bc07df2404c97307f2a52d7742d1c4a55adf8f9149975f8cd4919bb3"),
    "lcs": (96, "6fe4dc1a5188b11ddeca210be993d55bcaa5163ec14807995415b495d1f1f0a9"),
    "random": (96, "9e066094e6d89eb9d2c1497ededcf6bcb94e7614d09fe7bd6f2b5a9b6ed8fc5f"),
    "safe:lcs": (96, "f22e908bca57d5789cad57d93e6f1351663cdc1e05dbbca312e5857519a5eb9c"),
}


@pytest.mark.parametrize("name", sorted(PROPOSAL_PINS))
def test_proposal_sequence_is_pinned(name):
    trials, expected = PROPOSAL_PINS[name]
    assert _proposal_digest(name, trials) == expected
