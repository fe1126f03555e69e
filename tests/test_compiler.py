"""Tests for compiler passes: XLA fusion regions, softmax lowerings, pipeline."""

import numpy as np
import pytest

from repro.compiler.passes import compile_graph
from repro.compiler.softmax import (
    THREE_PASS_SOFTMAX,
    TWO_PASS_SOFTMAX,
    reference_softmax,
    softmax_cost_factors,
    three_pass_softmax,
    two_pass_softmax,
)
from repro.compiler.xla_fusion import build_fusion_regions
from repro.workloads.builder import GraphBuilder
from repro.workloads.ops import OpType
from repro.workloads.registry import available_workloads, build_workload


class TestFusionRegions:
    def test_each_region_has_at_most_one_anchor_matrix_op(self, efficientnet_b0):
        regions = build_fusion_regions(efficientnet_b0)
        for region in regions:
            anchors = [op for op in region.ops if op is region.matrix_op]
            assert len(anchors) <= 1

    @pytest.mark.parametrize("two_pass", [False, True])
    def test_a_region_starts_with_its_anchor(self, two_pass):
        # The simulator prices a region's utilization and blocking footprint
        # on its first matrix op, which this makes the anchor.
        for name in available_workloads():
            compiled = compile_graph(build_workload(name), use_two_pass_softmax=two_pass)
            for region in compiled.regions:
                assert region.matrix_op is None or region.matrix_op is region.ops[0]

    def test_every_op_appears_exactly_once(self, efficientnet_b0):
        regions = build_fusion_regions(efficientnet_b0)
        names = [op.name for region in regions for op in region.ops]
        assert sorted(names) == sorted(op.name for op in efficientnet_b0.ops)

    def test_elementwise_ops_fused_with_producer(self, tiny_graph):
        regions = build_fusion_regions(tiny_graph)
        conv_region = next(r for r in regions if r.matrix_op and r.matrix_op.name == "conv1")
        member_names = {op.name for op in conv_region.ops}
        assert "relu1" in member_names

    def test_internal_tensors_do_not_escape(self, tiny_graph):
        regions = build_fusion_regions(tiny_graph)
        for region in regions:
            member = {op.name for op in region.ops}
            for tname in region.internal_tensors:
                consumers = tiny_graph.consumers(tname)
                assert all(c.name in member for c in consumers)
                assert tname not in tiny_graph.output_names

    def test_region_inputs_are_external(self, tiny_graph):
        regions = build_fusion_regions(tiny_graph)
        for region in regions:
            produced = {t for op in region.ops for t in op.outputs}
            for tname in region.input_tensors:
                assert tname not in produced

    def test_weight_tensors_separated_from_activations(self, tiny_graph):
        regions = build_fusion_regions(tiny_graph)
        all_weights = {name for region in regions for name in region.weight_tensors}
        assert all(
            tiny_graph.tensor(name).kind.value in ("weight", "constant") for name in all_weights
        )

    def test_large_matmuls_anchor_their_own_regions(self, bert_seq128):
        regions = build_fusion_regions(bert_seq128)
        matmul_anchors = [r for r in regions if r.matrix_op and r.matrix_op.op_type is OpType.MATMUL]
        # 12 layers x (3 QKV + attention output + 2 FFN) = 72 large matmuls.
        assert len(matmul_anchors) >= 72

    def test_small_se_convs_absorbed_into_producer_region(self, efficientnet_b0):
        regions = build_fusion_regions(efficientnet_b0)
        # Squeeze-and-excite reduce/expand convs should not anchor regions.
        for region in regions:
            if region.matrix_op is not None:
                assert ".se_reduce" not in region.matrix_op.name
                assert ".se_expand" not in region.matrix_op.name

    def test_fewer_regions_than_ops(self, efficientnet_b0):
        regions = build_fusion_regions(efficientnet_b0)
        assert len(regions) < len(efficientnet_b0.ops)

    def test_region_byte_accessors(self, tiny_graph):
        regions = build_fusion_regions(tiny_graph)
        for region in regions:
            assert region.input_bytes(tiny_graph) >= 0
            assert region.output_bytes(tiny_graph) >= 0
            assert region.weight_bytes(tiny_graph) >= 0


class TestSoftmaxLowering:
    def test_two_pass_matches_reference(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 33)) * 10
        np.testing.assert_allclose(two_pass_softmax(values), reference_softmax(values), rtol=1e-10)

    def test_three_pass_matches_reference(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(3, 17)) * 5
        np.testing.assert_allclose(three_pass_softmax(values), reference_softmax(values), rtol=1e-10)

    def test_numerically_stable_for_large_inputs(self):
        values = np.array([[1000.0, 1000.5, 999.0]])
        out = two_pass_softmax(values)
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0)

    def test_two_pass_reduces_traffic_but_adds_flops(self):
        assert TWO_PASS_SOFTMAX.output_traffic_factor < THREE_PASS_SOFTMAX.output_traffic_factor
        assert TWO_PASS_SOFTMAX.flops_factor > THREE_PASS_SOFTMAX.flops_factor

    def test_factor_selection(self):
        assert softmax_cost_factors(True) is TWO_PASS_SOFTMAX
        assert softmax_cost_factors(False) is THREE_PASS_SOFTMAX


class TestCompilePipeline:
    def test_compile_graph_produces_regions(self, tiny_graph):
        compiled = compile_graph(tiny_graph)
        assert compiled.num_regions == len(compiled.regions) > 0
        assert not compiled.use_two_pass_softmax

    def test_two_pass_flag_propagates(self, bert_seq128):
        compiled = compile_graph(bert_seq128, use_two_pass_softmax=True)
        assert compiled.softmax_factors is TWO_PASS_SOFTMAX

    def test_region_of_lookup(self, tiny_graph):
        compiled = compile_graph(tiny_graph)
        region = compiled.region_of("conv1")
        assert any(op.name == "conv1" for op in region.ops)
        with pytest.raises(KeyError):
            compiled.region_of("not_an_op")

    def test_internal_traffic_saved_positive_for_fused_models(self, efficientnet_b0):
        compiled = compile_graph(efficientnet_b0)
        assert compiled.internal_traffic_saved_bytes() > 0

    def test_op_type_histogram_counts_all_ops(self, tiny_graph):
        compiled = compile_graph(tiny_graph)
        assert sum(compiled.op_type_histogram().values()) == len(tiny_graph)
