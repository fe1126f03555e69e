"""LCS proposals and the search-space lookups equal the code they replaced.

The references below are the LCS ask path, ``DatapathSearchSpace``'s
``sample``, ``encode``, ``decode`` and ``mutate``, and ``proposal_key``, as
they were written before the kept elite, the cached rank CDFs and the lookup
tables: they filter and sort every observation per batch, draw parents with
``Generator.choice(p=...)``, scan choices with ``tuple.index``, round each
parameter with ``round``, step with ``rng.choice([-1, 1])`` and key
proposals with ``json.dumps``.  Every proposal, every parent pair and the RNG
state after them must equal the references', draw for draw.
"""

from __future__ import annotations

import copy
import json
import math
import random

import numpy as np
import pytest

from repro.hardware.datapath import BufferConfig, L2Config
from repro.hardware.search_space import DatapathSearchSpace, ParameterSpec
from repro.reporting.serialization import params_to_jsonable
from repro.runtime.batching import proposal_key
from repro.runtime.checkpoint import optimizer_state_to_dict, restore_optimizer
from repro.search.evolutionary import LinearCombinationSwarmOptimizer, _cdf, _rank_weights

SPACE = DatapathSearchSpace()


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------
def reference_proposal_key(params) -> str:
    return json.dumps(params_to_jsonable(params), sort_keys=True)


class ReferenceSpace(DatapathSearchSpace):
    """``sample``, ``mutate``, ``encode`` and ``decode`` before the lookup tables."""

    def sample(self, rng):
        return {
            spec.name: spec.choices[int(rng.integers(spec.cardinality))]
            for spec in self._specs
        }

    def mutate(self, params, rng, num_mutations=1):
        mutated = dict(params)
        indices = rng.choice(len(self._specs), size=min(num_mutations, len(self._specs)), replace=False)
        for idx in indices:
            spec = self._specs[int(idx)]
            current = spec.index_of(mutated[spec.name])
            if spec.cardinality == 1:
                continue
            if rng.random() < 0.7 and spec.cardinality > 2:
                step = int(rng.choice([-1, 1]))
                new_index = min(max(current + step, 0), spec.cardinality - 1)
                if new_index == current:
                    new_index = min(max(current - step, 0), spec.cardinality - 1)
            else:
                new_index = int(rng.integers(spec.cardinality))
            mutated[spec.name] = spec.choices[new_index]
        return mutated

    def encode(self, params):
        encoded = np.empty(len(self._specs), dtype=float)
        for i, spec in enumerate(self._specs):
            index = spec.index_of(params[spec.name])
            encoded[i] = index / max(spec.cardinality - 1, 1)
        return encoded

    def decode(self, vector):
        params = {}
        for i, spec in enumerate(self._specs):
            index = int(round(float(vector[i]) * max(spec.cardinality - 1, 1)))
            index = min(max(index, 0), spec.cardinality - 1)
            params[spec.name] = spec.choices[index]
        return params


REFERENCE_SPACE = ReferenceSpace()


def reference_population(optimizer):
    feasible = optimizer.feasible_observations
    feasible.sort(key=lambda obs: obs.objective)
    return feasible[: optimizer.population_size]


def reference_select_parents(rng, population):
    ranks = np.arange(len(population), 0, -1, dtype=float)
    probabilities = ranks / ranks.sum()
    indices = rng.choice(len(population), size=2, replace=False, p=probabilities)
    return population[int(indices[0])], population[int(indices[1])]


class ReferenceLCS(LinearCombinationSwarmOptimizer):
    """The LCS ask path before the kept elite and the cached rank CDFs."""

    def _breed(self, population):
        parent_a, parent_b = reference_select_parents(self.rng, population)
        child_vector = self._linear_combination(
            self.space.encode(parent_a.params), self.space.encode(parent_b.params)
        )
        child = self.space.decode(child_vector)
        if self.rng.random() < self.mutation_probability:
            child = self.space.mutate(child, self.rng, num_mutations=int(self.rng.integers(1, 3)))
        return child

    def ask(self):
        population = reference_population(self)
        if len(population) < 2 or self.num_trials < self.num_initial_random:
            return self.space.sample(self.rng)
        return self._breed(population)

    def ask_batch(self, n):
        n = max(0, int(n))
        population = reference_population(self)
        if len(population) < 2 or self.num_trials < self.num_initial_random:
            return [self.space.sample(self.rng) for _ in range(n)]
        return [self._breed(population) for _ in range(n)]


# ---------------------------------------------------------------------------
# Parent draws
# ---------------------------------------------------------------------------
def _numpy_pair(rng, n):
    ranks = np.arange(n, 0, -1, dtype=float)
    return [int(i) for i in rng.choice(n, size=2, replace=False, p=ranks / ranks.sum())]


def _lcs_with(rng):
    optimizer = LinearCombinationSwarmOptimizer(SPACE)
    optimizer.rng = rng
    return optimizer


@pytest.mark.parametrize("n", range(2, 25))
def test_parent_draw_is_numpys_choice(n):
    for seed in range(100):
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        optimizer = _lcs_with(rng)
        for _ in range(4):
            assert list(optimizer._select_parents(n)) == _numpy_pair(expected_rng, n)
            assert rng.bit_generator.state == expected_rng.bit_generator.state


# PCG64 (numpy's default bit generator) steps its 128-bit state by this
# multiplier plus its odd increment, then outputs the XSL-RR permutation of
# the new state; ``random()`` is the output's top 53 bits times 2**-53.
# Inverting both lets a test choose the doubles a generator draws next.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_INVERSE = pow(_PCG_MULTIPLIER, -1, 1 << 128)
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _rotate_right(value: int, rotation: int) -> int:
    return ((value >> rotation) | (value << (64 - rotation))) & _MASK64


def _pcg_output(state: int) -> int:
    return _rotate_right(((state >> 64) ^ state) & _MASK64, state >> 122)


def _pcg_state_drawing(grid: int, high: int) -> int:
    """A stepped state whose ``random()`` is ``grid * 2**-53``; ``high`` is free."""
    low = high ^ _rotate_right(grid << 11, (64 - (high >> 58)) % 64)
    return (high << 64) | low


def _pcg_back(state: int, inc: int) -> int:
    return ((state - inc) * _PCG_INVERSE) & _MASK128


def _generator_at(state: int, inc: int) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _grid_points_around(value: float):
    """The doubles ``random()`` can draw nearest ``value``, on both sides."""
    below = math.floor(value * 2.0**53)
    return [grid for grid in (below - 1, below, below + 1) if 0 <= grid < 2**53]


def _bucket(cdf, x):
    return next(index for index, bound in enumerate(cdf) if bound > x)


def _first_draw_on(grid, search, inc):
    """(state, increment) of a generator whose first draw is ``grid * 2**-53``."""
    return _pcg_back(_pcg_state_drawing(grid, search.getrandbits(64)), inc), inc


def _redraw_on(grid, first, cdf, search):
    """(state, increment) of a generator whose first two draws both pick
    ``first`` and whose third is ``grid * 2**-53``.

    The second and third draws are set exactly (the increment links their
    states); the first is searched for until it lands on ``first`` too.
    """
    low_bound = cdf[first - 1] if first else 0.0
    inside = math.floor((low_bound + cdf[first]) / 2 * 2.0**53)
    while True:
        second = _pcg_state_drawing(inside, search.getrandbits(64))
        third_high = search.getrandbits(64)
        third = _pcg_state_drawing(grid, third_high)
        inc = (third - second * _PCG_MULTIPLIER) & _MASK128
        if not inc & 1:  # the increment must be odd: flip the low bit of both halves
            third = _pcg_state_drawing(grid, third_high ^ 1)
            inc = (third - second * _PCG_MULTIPLIER) & _MASK128
        first_state = _pcg_back(second, inc)
        if _bucket(cdf, (_pcg_output(first_state) >> 11) * 2.0**-53) == first:
            return _pcg_back(first_state, inc), inc


@pytest.mark.parametrize("n", range(2, 25))
def test_parent_draw_is_numpys_choice_on_every_cdf_boundary(n):
    """Draws on and beside each CDF entry, for the first draw and for the
    redraw after a duplicate pick of each index: only CDFs equal to numpy's,
    bit for bit, pick numpy's index for every one of them."""
    search = random.Random(n)
    default_inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    weights, cdf = _rank_weights(n)
    without = [_cdf(np.where(np.arange(n) == first, 0.0, weights)) for first in range(n)]
    cases = [
        (1, grid, _first_draw_on(grid, search, default_inc))
        for bound in cdf[:-1] for grid in _grid_points_around(bound)
    ]
    cases += [
        (3, grid, _redraw_on(grid, first, cdf, search))
        for first in range(n) for bound in without[first][:-1]
        for grid in _grid_points_around(bound)
    ]
    for draws, grid, (state, inc) in cases:
        assert _generator_at(state, inc).random(draws)[-1] == grid * 2.0**-53
        expected_rng, rng = _generator_at(state, inc), _generator_at(state, inc)
        assert list(_lcs_with(rng)._select_parents(n)) == _numpy_pair(expected_rng, n)
        assert rng.bit_generator.state == expected_rng.bit_generator.state


# ---------------------------------------------------------------------------
# Proposals over whole searches
# ---------------------------------------------------------------------------
def _outcome(rng):
    """A synthetic (objective, feasible) with many ties, infeasible and non-finite trials."""
    roll = rng.random()
    if roll < 0.15:
        return float(rng.integers(-12, 0)), False
    if roll < 0.22:
        return (math.nan, math.inf, -math.inf)[int(rng.integers(3))], True
    return float(rng.integers(-12, 0)) / 2, True


def _propose(optimizer, batch):
    return [optimizer.ask()] if batch == 1 else optimizer.ask_batch(batch)


def _replay(optimizer, seed):
    """A fresh optimizer resumed from ``optimizer``'s tells and checkpointed state."""
    resumed = LinearCombinationSwarmOptimizer(
        SPACE, seed=seed + 1000, population_size=optimizer.population_size,
        num_initial_random=optimizer.num_initial_random,
    )
    state = json.loads(json.dumps(optimizer_state_to_dict(optimizer)))
    for observation in optimizer.observations:
        resumed.tell(observation.params, observation.objective, feasible=observation.feasible)
    restore_optimizer(resumed, state)
    return resumed


@pytest.mark.parametrize(
    "population_size,num_initial_random,batch",
    [(24, 2, 1), (24, 2, 8), (24, 24, 8), (2, 2, 8), (5, 3, 1), (7, 4, 8)],
)
@pytest.mark.parametrize("seed", range(4))
def test_proposals_equal_the_reference(population_size, num_initial_random, batch, seed):
    options = dict(population_size=population_size, num_initial_random=num_initial_random)
    optimizer = LinearCombinationSwarmOptimizer(SPACE, seed=seed, **options)
    reference = ReferenceLCS(REFERENCE_SPACE, seed=seed, **options)
    outcomes = np.random.default_rng(seed + 500)
    sizes = set()
    for step in range(192 // batch):
        if step == 96 // batch:  # resume from a checkpoint mid-run
            optimizer = _replay(optimizer, seed)
        proposals, expected = _propose(optimizer, batch), _propose(reference, batch)
        assert [proposal_key(p) for p in proposals] == [reference_proposal_key(p) for p in expected]
        assert optimizer.rng.bit_generator.state == reference.rng.bit_generator.state
        for params in proposals:
            objective, feasible = _outcome(outcomes)
            optimizer.tell(params, objective, feasible=feasible)
            reference.tell(params, objective, feasible=feasible)
        elite = reference_population(reference)
        sizes.add(len(elite))
        assert [obs.trial_index for obs in optimizer._population()] == [
            obs.trial_index for obs in elite
        ]
    assert max(sizes) == population_size
    if batch == 1 and population_size == 24:
        assert set(range(2, 25)) <= sizes


# ---------------------------------------------------------------------------
# Search-space lookups
# ---------------------------------------------------------------------------
def _random_params(rng):
    """Uniform params, with every parameter at an end of its range a third of the time."""
    params = {}
    for spec in SPACE.specs:
        position = int(rng.integers(spec.cardinality))
        params[spec.name] = spec.choices[(0, spec.cardinality - 1, position)[int(rng.integers(3))]]
    return params


def test_encode_equals_the_reference():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        params = _random_params(rng)
        encoded, expected = SPACE.encode(params), REFERENCE_SPACE.encode(params)
        assert encoded.dtype == expected.dtype and encoded.tolist() == expected.tolist()


def _exact_half(index: int, scale: int) -> float:
    """A component that scales to exactly ``index + 0.5`` (the rounding tie)."""
    value = (index + 0.5) / scale
    for _ in range(8):
        if value * scale == index + 0.5:
            return value
        value = float(np.nextafter(value, math.inf if value * scale < index + 0.5 else -math.inf))
    raise AssertionError(f"no double scales to {index + 0.5} by {scale}")


def test_decode_equals_the_reference_on_rounding_ties():
    rng = np.random.default_rng(22)
    scales = [max(spec.cardinality - 1, 1) for spec in SPACE.specs]
    vectors = [rng.uniform(-0.5, 1.5, size=len(scales)) for _ in range(2000)]
    vectors += [
        np.array([_exact_half(int(rng.integers(-1, scale + 1)), scale) for scale in scales])
        for _ in range(2000)
    ]
    ties = 0
    for vector in vectors:
        assert SPACE.decode(vector) == REFERENCE_SPACE.decode(vector)
        ties += sum(component * scale % 1 == 0.5 for component, scale in zip(vector, scales))
    assert ties > 2000 * len(scales) // 2


def test_decode_refuses_a_non_finite_component():
    for bad in (math.nan, math.inf, -math.inf):
        vector = np.full(len(SPACE.specs), 0.5)
        vector[3] = bad
        with pytest.raises(ValueError):
            SPACE.decode(vector)


def test_mutate_and_sample_equal_the_reference_draw_for_draw():
    picker = np.random.default_rng(23)
    for seed in range(1500):
        params = _random_params(picker)
        num_mutations = int(picker.integers(1, 6))
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert SPACE.mutate(params, rng, num_mutations) == REFERENCE_SPACE.mutate(
            params, reference_rng, num_mutations
        )
        assert SPACE.sample(rng) == REFERENCE_SPACE.sample(reference_rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_restricted_spaces_rebuild_their_tables():
    choices = {"pes_x_dim": (2, 16, 128), "l1_buffer_config": (BufferConfig.SHARED,),
               "l2_buffer_config": [L2Config.SHARED, L2Config.DISABLED]}
    restricted = SPACE.with_choices(choices)
    reference = copy.copy(REFERENCE_SPACE)
    reference._specs = [
        ParameterSpec(spec.name, tuple(choices[spec.name])) if spec.name in choices else spec
        for spec in reference.specs
    ]
    assert SPACE.spec("pes_x_dim").cardinality == 9  # the full space keeps its tables
    assert SPACE.encode(dict(SPACE.sample(np.random.default_rng(0)), pes_x_dim=4))[0] == 2 / 8
    assert restricted.spec("l2_buffer_config").choices == (L2Config.SHARED, L2Config.DISABLED)
    for seed in range(300):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        params = restricted.sample(rng)
        assert params == reference.sample(reference_rng)
        assert restricted.encode(params).tolist() == reference.encode(params).tolist()
        vector = rng.uniform(-0.2, 1.2, size=len(restricted.specs))
        reference_rng.uniform(-0.2, 1.2, size=len(restricted.specs))
        assert restricted.decode(vector) == reference.decode(vector)
        assert restricted.mutate(params, rng, 3) == reference.mutate(params, reference_rng, 3)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    with pytest.raises(ValueError):
        restricted.encode(dict(params, pes_x_dim=4))  # a choice of the full space only


class _PinnedPick:
    """An rng stand-in whose ``choice`` always mutates parameter ``position``."""

    def __init__(self, position):
        self.position = position

    def choice(self, count, size, replace):
        return np.array([self.position])


@pytest.mark.parametrize(
    "value", [3, 3.0, "private", None, [1, 2], BufferConfig.PRIVATE]
)
def test_a_value_outside_its_spec_raises_value_error(value):
    params = dict(SPACE.sample(np.random.default_rng(24)), pes_x_dim=value)
    with pytest.raises(ValueError):
        SPACE.encode(params)
    with pytest.raises(ValueError):
        SPACE.mutate(params, _PinnedPick(0), 1)


def test_values_equal_to_a_choice_keep_tuple_index_semantics():
    # 2.0 == 2 and True == 1 hash alike, so the tables find them as
    # tuple.index does; each keeps its own type in the proposal key.
    params = SPACE.sample(np.random.default_rng(25))
    for name, value in (("pes_x_dim", 2.0), ("pes_y_dim", True), ("use_two_pass_softmax", 1)):
        odd = dict(params, **{name: value})
        assert SPACE.encode(odd).tolist() == REFERENCE_SPACE.encode(odd).tolist()
        assert proposal_key(odd) == reference_proposal_key(odd)


def test_proposal_key_equals_the_reference():
    rng = np.random.default_rng(26)
    for _ in range(2000):
        params = _random_params(rng)
        assert proposal_key(params) == reference_proposal_key(params)
    # Values that compare equal but dump differently, or cannot be hashed.
    for first, second in ((0.0, -0.0), (1, True), (1, 1.0), ((0.0,), (-0.0,))):
        for value in (first, second):
            assert proposal_key({"a": value, "b": 1}) == reference_proposal_key({"a": value, "b": 1})
    for odd in ({"x": [1, 2]}, {}, {"b": None, "a": {"z": 1, "y": 2}}, {"a": math.nan}):
        assert proposal_key(odd) == reference_proposal_key(odd)
    with pytest.raises(TypeError):
        proposal_key({"a": np.int64(3)})
