"""Tests for the whole-graph simulator, vector op costs, roofline, and results."""

import pytest

from repro.compiler.softmax import THREE_PASS_SOFTMAX, TWO_PASS_SOFTMAX
from repro.hardware.datapath import DatapathConfig
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.roofline import attainable_flops, roofline_point
from repro.simulator.vector_ops import vector_op_cost, vpu_lanes_per_core
from repro.workloads.builder import GraphBuilder
from repro.workloads.ops import OpType


class TestVectorOpCosts:
    def _softmax_graph(self, elements=4096):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, elements))
        builder.softmax(x, name="sm")
        return builder.graph

    def test_vpu_lane_count(self, small_config):
        assert vpu_lanes_per_core(small_config) == (
            small_config.num_pes * small_config.vpu_lanes_per_pe
        )

    def test_softmax_cost_scales_inversely_with_lanes(self):
        graph = self._softmax_graph()
        narrow = DatapathConfig(vector_unit_multiplier=1)
        wide = DatapathConfig(vector_unit_multiplier=8)
        op = graph.op("sm")
        cost_narrow = vector_op_cost(op, graph.tensors, narrow)
        cost_wide = vector_op_cost(op, graph.tensors, wide)
        assert cost_wide.vector_cycles < cost_narrow.vector_cycles

    def test_two_pass_softmax_trades_traffic_for_flops(self, small_config):
        graph = self._softmax_graph()
        op = graph.op("sm")
        three = vector_op_cost(op, graph.tensors, small_config, THREE_PASS_SOFTMAX)
        two = vector_op_cost(op, graph.tensors, small_config, TWO_PASS_SOFTMAX)
        assert two.dram_output_bytes < three.dram_output_bytes
        assert two.vector_cycles > three.vector_cycles

    def test_reshape_is_free(self, small_config):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 64))
        builder.reshape(x, (64,), name="r")
        cost = vector_op_cost(builder.graph.op("r"), builder.graph.tensors, small_config)
        assert cost.vector_cycles == 0
        assert cost.dram_bytes == 0

    def test_layernorm_reads_input_twice(self, small_config):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 1024))
        builder.layernorm(x, name="ln")
        cost = vector_op_cost(builder.graph.op("ln"), builder.graph.tensors, small_config)
        assert cost.dram_input_bytes == pytest.approx(2 * 1024 * 2)


class TestRoofline:
    def test_memory_bound_below_ridge(self, tpu_config):
        point = roofline_point(tpu_config, operational_intensity=30.0)
        assert point.memory_bound
        assert point.attainable_flops < tpu_config.peak_matrix_flops

    def test_compute_bound_above_ridge(self, tpu_config):
        point = roofline_point(tpu_config, operational_intensity=500.0)
        assert not point.memory_bound
        assert point.attainable_flops == pytest.approx(tpu_config.peak_matrix_flops)

    def test_attainable_scales_linearly_when_memory_bound(self, tpu_config):
        assert attainable_flops(tpu_config, 20.0) == pytest.approx(
            2 * attainable_flops(tpu_config, 10.0)
        )

    def test_zero_intensity(self, tpu_config):
        assert attainable_flops(tpu_config, 0.0) == 0.0


class TestSimulatorInvariants:
    def test_result_structure(self, tiny_on_small, tiny_graph):
        result = tiny_on_small
        assert result.workload == tiny_graph.name
        assert not result.schedule_failed
        assert result.total_cycles > 0
        assert result.qps > 0
        assert result.latency_ms > 0
        assert len(result.regions) > 0

    def test_flops_conserved(self, tiny_on_small, tiny_graph):
        assert tiny_on_small.total_flops == pytest.approx(tiny_graph.total_flops(), rel=0.01)

    def test_post_fusion_never_slower(self, b0_on_fast_large):
        assert b0_on_fast_large.total_cycles <= b0_on_fast_large.pre_fusion_cycles + 1e-6

    def test_post_fusion_traffic_never_larger(self, b0_on_fast_large):
        assert (
            b0_on_fast_large.dram_bytes_post_fusion
            <= b0_on_fast_large.dram_bytes_pre_fusion + 1e-6
        )

    def test_region_times_at_least_busy(self, b0_on_fast_large):
        result = b0_on_fast_large
        for region, cycles in zip(
            result.regions, result.region_post_fusion_cycles, strict=True
        ):
            assert cycles >= region.busy_cycles - 1e-6

    def test_utilization_in_unit_interval(self, b0_on_tpu, b0_on_fast_large):
        for result in (b0_on_tpu, b0_on_fast_large):
            assert 0 < result.compute_utilization <= 1.0
            for value in result.per_layer_utilization():
                assert 0 <= value <= 1.0

    def test_runtime_fractions_sum_to_one(self, b0_on_tpu):
        fractions = b0_on_tpu.runtime_fraction_by_op_type()
        assert sum(fractions.values()) == pytest.approx(1.0)
        flop_fractions = b0_on_tpu.flop_fraction_by_op_type()
        assert sum(flop_fractions.values()) == pytest.approx(1.0)

    def test_memory_stall_fraction_bounds(self, b0_on_tpu):
        for post in (True, False):
            stall = b0_on_tpu.memory_stall_fraction(post_fusion=post)
            assert 0.0 <= stall <= 1.0

    def test_qps_scales_with_cores(self, tiny_graph, small_config):
        single = Simulator(small_config.evolve(num_cores=1)).simulate(tiny_graph)
        dual = Simulator(small_config.evolve(num_cores=2, gddr6_channels=4)).simulate(tiny_graph)
        assert dual.qps == pytest.approx(2 * single.qps, rel=0.05)

    def test_summary_keys(self, tiny_on_small):
        summary = tiny_on_small.summary()
        for key in ("qps", "latency_ms", "compute_utilization", "fusion_efficiency"):
            assert key in summary

    def test_perf_per_tdp_helper(self, tiny_on_small):
        assert tiny_on_small.perf_per_tdp(100.0) == pytest.approx(tiny_on_small.qps / 100.0)
        assert tiny_on_small.perf_per_tdp(0.0) == 0.0


class TestFusionInteraction:
    def test_disabling_fusion_is_never_faster(self, tiny_graph, fast_large_config):
        fused = Simulator(fast_large_config).simulate(tiny_graph)
        unfused = Simulator(
            fast_large_config, SimulationOptions(enable_fast_fusion=False)
        ).simulate(tiny_graph)
        assert fused.total_cycles <= unfused.total_cycles + 1e-6

    def test_no_global_memory_means_no_fusion(self, tiny_graph):
        config = DatapathConfig(l3_global_buffer_mib=0)
        result = Simulator(config).simulate(tiny_graph)
        assert result.fusion_result is None

    def test_fusion_improves_efficientnet_on_fast_large(self, b0_on_fast_large):
        """Section 6.2.7: fusion removes memory stalls on bandwidth-starved designs."""
        assert b0_on_fast_large.fusion_result is not None
        assert b0_on_fast_large.fusion_result.speedup >= 1.0
        assert b0_on_fast_large.operational_intensity(post_fusion=True) >= (
            b0_on_fast_large.operational_intensity(post_fusion=False)
        )

    def test_larger_global_memory_never_hurts(self, tiny_graph):
        small_gm = DatapathConfig(l3_global_buffer_mib=1, gddr6_channels=1)
        big_gm = DatapathConfig(l3_global_buffer_mib=128, gddr6_channels=1)
        r_small = Simulator(small_gm).simulate(tiny_graph)
        r_big = Simulator(big_gm).simulate(tiny_graph)
        assert r_big.total_cycles <= r_small.total_cycles + 1e-6


class TestScheduleFailures:
    def test_infeasible_datapath_reports_failure(self, tiny_graph):
        from repro.hardware.datapath import BufferConfig

        config = DatapathConfig(
            systolic_array_x=256,
            systolic_array_y=256,
            l1_buffer_config=BufferConfig.PRIVATE,
            l1_input_buffer_kib=1,
            l1_weight_buffer_kib=1,
            l1_output_buffer_kib=1,
        )
        result = Simulator(config).simulate(tiny_graph)
        assert result.schedule_failed
        assert result.qps == 0.0
