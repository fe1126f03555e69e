"""Figure 14: FAST-Large EfficientNet-B7 per-layer utilization (with and without fusion)."""


def mean(values):
    return sum(values) / len(values)


def test_fig14_fast_large_per_layer_utilization(figure):
    data = figure("fig14")
    fused = mean(data["fast_large_fused"])

    # The 32x32 arrays improve utilization over TPU-v3, but the full gain only
    # materializes once FAST fusion removes the memory bottleneck.
    assert fused > mean(data["tpu_v3"])
    assert fused >= mean(data["fast_large_no_fusion"])
    assert data["fused_compute_utilization"] > 0.3
