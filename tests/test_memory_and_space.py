"""Tests for the memory hierarchy view, the search space, and the TPU baseline."""

import numpy as np
import pytest

from repro.hardware.datapath import BufferConfig, DatapathConfig, L2Config
from repro.hardware.memory import MemoryHierarchy, MemoryLevelName
from repro.hardware.search_space import DatapathSearchSpace
from repro.hardware.tpu import TPU_V3, default_constraints
from repro.hardware.area_power import AreaPowerModel


class TestMemoryHierarchy:
    def test_levels_order_innermost_first(self, small_config):
        hierarchy = MemoryHierarchy(small_config)
        names = [level.name for level in hierarchy.levels]
        assert names[0] is MemoryLevelName.L1
        assert names[-1] is MemoryLevelName.DRAM

    def test_l2_absent_when_disabled(self, small_config):
        hierarchy = MemoryHierarchy(small_config)
        assert not hierarchy.has_l2
        assert hierarchy.level(MemoryLevelName.L2) is None

    def test_l2_present_when_enabled(self):
        config = DatapathConfig(l2_buffer_config=L2Config.SHARED)
        hierarchy = MemoryHierarchy(config)
        assert hierarchy.has_l2

    def test_global_buffer_optional(self):
        with_gm = MemoryHierarchy(DatapathConfig(l3_global_buffer_mib=64))
        without = MemoryHierarchy(DatapathConfig(l3_global_buffer_mib=0))
        assert with_gm.has_global_buffer
        assert not without.has_global_buffer

    def test_shared_l1_pools_capacity(self):
        private = MemoryHierarchy(DatapathConfig(l1_buffer_config=BufferConfig.PRIVATE))
        shared = MemoryHierarchy(DatapathConfig(l1_buffer_config=BufferConfig.SHARED))
        assert (
            shared.level(MemoryLevelName.L1).capacity_bytes
            > private.level(MemoryLevelName.L1).capacity_bytes
        )

    def test_blocking_capacity_reserves_global_memory_for_fusion(self):
        config = DatapathConfig(l3_global_buffer_mib=64)
        hierarchy = MemoryHierarchy(config)
        assert hierarchy.blocking_capacity_bytes < hierarchy.onchip_capacity_bytes

    def test_onchip_capacity_includes_all_levels(self):
        config = DatapathConfig(l2_buffer_config=L2Config.SHARED, l3_global_buffer_mib=32)
        hierarchy = MemoryHierarchy(config)
        assert hierarchy.onchip_capacity_bytes == (
            config.l1_total_bytes + config.l2_total_bytes + config.global_buffer_bytes
        )

    def test_dram_bandwidth_matches_config(self, small_config):
        hierarchy = MemoryHierarchy(small_config)
        dram = hierarchy.level(MemoryLevelName.DRAM)
        assert dram.bandwidth_bytes_per_cycle == pytest.approx(small_config.dram_bytes_per_cycle)


class TestSearchSpace:
    @pytest.fixture(scope="class")
    def space(self):
        return DatapathSearchSpace()

    def test_log10_size_is_large(self, space):
        """Table 3: the datapath space alone has ~1e13 configurations."""
        assert 12 < space.log10_size < 17

    def test_sample_produces_valid_configs(self, space):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = space.sample(rng)
            config = space.to_config(params)
            assert config.num_pes >= 1

    def test_encode_decode_roundtrip(self, space):
        rng = np.random.default_rng(1)
        for _ in range(10):
            params = space.sample(rng)
            assert space.decode(space.encode(params)) == params

    def test_encode_in_unit_cube(self, space):
        rng = np.random.default_rng(2)
        vector = space.encode(space.sample(rng))
        assert np.all(vector >= 0.0) and np.all(vector <= 1.0)

    def test_mutate_changes_at_most_requested_parameters(self, space):
        rng = np.random.default_rng(3)
        params = space.sample(rng)
        mutated = space.mutate(params, rng, num_mutations=2)
        differences = sum(1 for name in params if params[name] != mutated[name])
        assert 0 <= differences <= 2

    def test_mutate_does_not_modify_original(self, space):
        rng = np.random.default_rng(4)
        params = space.sample(rng)
        original = dict(params)
        space.mutate(params, rng, num_mutations=3)
        assert params == original

    def test_from_config_roundtrip(self, space):
        params = space.from_config(TPU_V3)
        config = space.to_config(params, num_cores=TPU_V3.num_cores)
        assert config.systolic_array_x == TPU_V3.systolic_array_x
        assert config.l3_global_buffer_mib == TPU_V3.l3_global_buffer_mib

    def test_spec_lookup(self, space):
        spec = space.spec("gddr6_channels")
        assert spec.choices == (1, 2, 4, 8)
        with pytest.raises(KeyError):
            space.spec("nonexistent")

    def test_two_pass_softmax_optional(self):
        without = DatapathSearchSpace(allow_two_pass_softmax=False)
        assert "use_two_pass_softmax" not in without.parameter_names


def _reference_decode(space, vector):
    """``DatapathSearchSpace.decode`` as it was written with ``np.clip``."""
    params = {}
    for i, spec in enumerate(space.specs):
        index = int(round(float(vector[i]) * max(spec.cardinality - 1, 1)))
        index = int(np.clip(index, 0, spec.cardinality - 1))
        params[spec.name] = spec.choices[index]
    return params


def _reference_mutate(space, params, rng, num_mutations=1):
    """``DatapathSearchSpace.mutate`` as it was written with ``np.clip``."""
    specs = space.specs
    mutated = dict(params)
    indices = rng.choice(len(specs), size=min(num_mutations, len(specs)), replace=False)
    for idx in indices:
        spec = specs[int(idx)]
        current = spec.index_of(mutated[spec.name])
        if spec.cardinality == 1:
            continue
        if rng.random() < 0.7 and spec.cardinality > 2:
            step = int(rng.choice([-1, 1]))
            new_index = int(np.clip(current + step, 0, spec.cardinality - 1))
            if new_index == current:
                new_index = int(np.clip(current - step, 0, spec.cardinality - 1))
        else:
            new_index = int(rng.integers(spec.cardinality))
        mutated[spec.name] = spec.choices[new_index]
    return mutated


class TestIntegerClamp:
    """decode/mutate clamp with plain ints exactly as the np.clip originals did."""

    @pytest.fixture(scope="class")
    def space(self):
        return DatapathSearchSpace()

    def test_decode_matches_np_clip_reference(self, space):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            # Components well outside [0, 1] exercise both clamp bounds.
            vector = rng.uniform(-1.0, 2.0, size=len(space.specs))
            assert space.decode(vector) == _reference_decode(space, vector)

    def test_mutate_matches_np_clip_reference_and_rng_draws(self, space):
        picker = np.random.default_rng(12)
        for seed in range(1000):
            # Pin every parameter to its first or last choice half the time,
            # so local moves keep stepping past the ends of the range.
            params = {}
            for spec in space.specs:
                end = int(picker.integers(4))
                position = (0, spec.cardinality - 1)[end] if end < 2 else int(
                    picker.integers(spec.cardinality)
                )
                params[spec.name] = spec.choices[position]
            num_mutations = int(picker.integers(1, 6))
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert space.mutate(params, rng, num_mutations) == _reference_mutate(
                space, params, reference_rng, num_mutations
            )
            assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestConstraints:
    def test_tpu_baseline_sits_at_published_normalization(self):
        """Table 5: the modeled TPU-v3 is 0.5x of the TDP and 0.6x of the area budget."""
        model = AreaPowerModel()
        constraints = default_constraints(model)
        breakdown = model.evaluate(TPU_V3)
        assert constraints.normalized_tdp(breakdown.total_tdp_w) == pytest.approx(0.5, rel=0.01)
        assert constraints.normalized_area(breakdown.total_area_mm2) == pytest.approx(0.6, rel=0.01)

    def test_feasibility_check(self):
        constraints = default_constraints()
        assert constraints.is_feasible(constraints.max_area_mm2, constraints.max_tdp_w)
        assert not constraints.is_feasible(constraints.max_area_mm2 * 1.01, constraints.max_tdp_w)
        assert not constraints.is_feasible(constraints.max_area_mm2, constraints.max_tdp_w * 1.01)
